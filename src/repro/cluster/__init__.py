"""Clustering algorithms used across the paper.

- Threshold centroid-linkage hierarchical clustering (candidate pools, ours)
- DBSCAN (GeoCloud baseline)
- Grid merging (DLInfMA-Grid variant)

All operate on ``(n, 2)`` arrays of projected meter coordinates.
"""

from repro.cluster.types import Cluster
from repro.cluster.hierarchical import hierarchical_cluster, merge_weighted_clusters
from repro.cluster.dbscan import dbscan
from repro.cluster.gridmerge import grid_merge

__all__ = [
    "Cluster",
    "hierarchical_cluster",
    "merge_weighted_clusters",
    "dbscan",
    "grid_merge",
]
