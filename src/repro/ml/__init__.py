"""Classical ML substrate (replaces scikit-learn for this reproduction)."""

from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.mlp import MLPClassifier
from repro.ml.ranking import PairwiseRankingTree, RankNet, RankingGroup
from repro.ml.scaler import StandardScaler

__all__ = [
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "GradientBoostingClassifier",
    "GradientBoostingRegressor",
    "MLPClassifier",
    "PairwiseRankingTree",
    "RankNet",
    "RankingGroup",
    "StandardScaler",
]
