import numpy as np
import pytest

from repro.trajectory import NoiseFilterConfig, TrajPoint, Trajectory, filter_noise
from tests.trajectory.trip_reference import same_trajectory


def traj_from(points):
    return Trajectory("c", [TrajPoint(*p) for p in points])


class TestNoiseFilter:
    def test_clean_trajectory_untouched(self):
        # ~11 m between fixes at 10 s apart -> ~1.1 m/s, well under limit.
        tr = traj_from([(116.4 + i * 1e-4, 39.9, i * 10.0) for i in range(10)])
        out = filter_noise(tr)
        assert same_trajectory(out, tr)

    def test_single_jump_removed(self):
        pts = [(116.4, 39.9, 0.0), (116.9, 39.9, 10.0), (116.4001, 39.9, 20.0)]
        out = filter_noise(traj_from(pts))
        assert len(out) == 2
        assert out.lng[1] == 116.4001

    def test_speed_measured_from_last_kept(self):
        # After dropping the jump, the next point must be checked against the
        # point before the jump, not the jump itself.
        pts = [(116.4, 39.9, 0.0), (117.4, 39.9, 10.0), (117.4, 39.9001, 20.0)]
        out = filter_noise(traj_from(pts))
        assert len(out) == 1  # both far points dropped relative to origin

    def test_short_trajectories_passthrough(self):
        assert len(filter_noise(traj_from([(0.0, 0.0, 0.0)]))) == 1
        assert len(filter_noise(Trajectory("c", []))) == 0

    def test_custom_threshold(self):
        # ~157 m in 10 s = 15.7 m/s.
        pts = [(116.4, 39.9, 0.0), (116.4, 39.90141, 10.0)]
        strict = filter_noise(traj_from(pts), NoiseFilterConfig(max_speed_mps=10.0))
        loose = filter_noise(traj_from(pts), NoiseFilterConfig(max_speed_mps=20.0))
        assert len(strict) == 1
        assert len(loose) == 2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            NoiseFilterConfig(max_speed_mps=0.0)

    def test_result_is_new_object(self):
        tr = traj_from([(116.4, 39.9, 0.0), (116.4001, 39.9, 10.0)])
        out = filter_noise(tr)
        assert out is not tr
        assert not np.shares_memory(out.t, tr.t)
