import numpy as np
import pytest

from tagbridge.assess import absolute_offsets, assess, relative_distance_stats
from tagbridge.errors import NoCommonIds, TooFewPoints


def point_set(rng, n=8, spread=20.0):
    return {i: rng.uniform(-spread, spread, 3) for i in range(1, n + 1)}


class TestAbsoluteOffsets:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(0)
        pts = point_set(rng)
        assert np.allclose(absolute_offsets(pts, pts), 0.0, atol=1e-15)

    def test_constant_offset_recovered(self):
        rng = np.random.default_rng(1)
        truth = point_set(rng)
        offset = np.array([0.0, 0.0, 1.0])
        est = {k: v + offset for k, v in truth.items()}
        assert np.allclose(absolute_offsets(est, truth), offset, atol=1e-12)

    def test_equivariance(self):
        rng = np.random.default_rng(2)
        truth = point_set(rng)
        est = {k: v + rng.normal(0, 0.1, 3) for k, v in truth.items()}
        base = absolute_offsets(est, truth)
        v = np.array([-0.23, 0.30, 1.0])
        shifted = absolute_offsets({k: p + v for k, p in est.items()}, truth)
        assert np.allclose(shifted - base, v, atol=1e-12)

    def test_no_common_ids(self):
        with pytest.raises(NoCommonIds):
            absolute_offsets({1: np.zeros(3)}, {2: np.zeros(3)})

    def test_accepts_pair_list(self):
        est = [(1, (1.0, 0.0, 0.0)), (2, (0.0, 1.0, 0.0))]
        tru = [(1, (0.0, 0.0, 0.0)), (2, (0.0, 0.0, 0.0))]
        out = absolute_offsets(est, tru)
        assert np.allclose(out, (0.5, 0.5, 0.0))


class TestRelativeStats:
    def test_constant_offset_cancels_exactly(self):
        rng = np.random.default_rng(3)
        truth = point_set(rng)
        est = {k: v + np.array([-0.23, 0.30, 1.0]) for k, v in truth.items()}
        axis_means, dist_mean, _ = relative_distance_stats(est, truth)
        assert np.allclose(axis_means, 0.0, atol=1e-12)
        assert dist_mean < 1e-12

    def test_two_points_one_pair(self):
        est = {1: np.zeros(3), 2: np.array([1.0, 0.0, 0.0])}
        axis_means, _, n_pairs = relative_distance_stats(est, est)
        assert n_pairs == 1

    def test_pair_count(self):
        rng = np.random.default_rng(4)
        pts = point_set(rng, n=8)
        _, _, n_pairs = relative_distance_stats(pts, pts)
        assert n_pairs == 8 * 7 // 2

    def test_matches_per_pair_loop(self):
        rng = np.random.default_rng(9)
        truth = point_set(rng, n=40)
        est = {k: v + rng.normal(0, 0.05, 3) for k, v in truth.items()}
        sep, dist = [], []
        for a in range(1, 41):
            for b in range(a + 1, 41):
                sep.append(np.abs(np.abs(est[a] - est[b]) - np.abs(truth[a] - truth[b])))
                dist.append(abs(np.linalg.norm(est[a] - est[b])
                                - np.linalg.norm(truth[a] - truth[b])))
        axis_means, dist_mean, n_pairs = relative_distance_stats(est, truth)
        assert n_pairs == 780
        assert np.max(np.abs(axis_means - np.mean(sep, axis=0))) < 1e-12
        assert abs(dist_mean - np.mean(dist)) < 1e-12

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            relative_distance_stats({1: np.zeros(3)}, {1: np.zeros(3)})

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        truth = point_set(rng)
        est = {k: v + rng.normal(0, 0.05, 3) for k, v in truth.items()}
        a, da, _ = relative_distance_stats(est, truth)
        shift = rng.uniform(-100, 100, 3)
        b, db, _ = relative_distance_stats({k: v + shift for k, v in est.items()}, truth)
        assert np.allclose(a, b, atol=1e-12)
        assert abs(da - db) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        truth = point_set(rng)
        est = {k: v + rng.normal(0, 0.05, 3) for k, v in truth.items()}
        a, da, _ = relative_distance_stats(est, truth)
        order = list(est)[::-1]
        b, db, _ = relative_distance_stats({k: est[k] for k in order}, truth)
        assert np.array_equal(a, b)
        assert da == db

    def test_matches_monte_carlo_oracle(self):
        # mean relative separation error under iid noise, against a direct
        # 1000-trial simulation with independently written statistics
        rng = np.random.default_rng(7)
        truth = point_set(rng, n=6)
        ids = sorted(truth)
        sigma = 0.05

        def oracle_trial(r):
            noisy = {k: truth[k] + r.normal(0, sigma, 3) for k in ids}
            diffs = []
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    a, b = ids[i], ids[j]
                    d_n = np.abs(noisy[a] - noisy[b])
                    d_t = np.abs(truth[a] - truth[b])
                    diffs.append(np.abs(d_n - d_t))
            return np.mean(diffs, axis=0)

        oracle_rng = np.random.default_rng(1000)
        oracle_means = np.array([oracle_trial(oracle_rng) for _ in range(1000)])
        oracle_mean = oracle_means.mean(axis=0)
        oracle_std = oracle_means.std(axis=0)

        est = {k: truth[k] + rng.normal(0, sigma, 3) for k in ids}
        axis_means, _, _ = relative_distance_stats(est, truth)
        assert np.all(np.abs(axis_means - oracle_mean) < 3.5 * oracle_std)


class TestAssessReport:
    def test_structural_offset_reproduction(self):
        # constant offset: absolute mean equals the offset exactly while the
        # relative statistics vanish
        rng = np.random.default_rng(8)
        truth = point_set(rng, n=8)
        offset = np.array([-0.23, 0.30, 1.0])
        est = {k: v + offset for k, v in truth.items()}
        report = assess(est, truth)
        assert np.max(np.abs(report.absolute_mean - offset)) < 1e-12
        assert np.max(np.abs(report.relative_mean)) < 1e-12
        assert report.n_points == 8
        assert report.n_pairs == 28

    def test_diagnostics_for_unmatched_ids(self):
        est = {1: np.zeros(3), 2: np.ones(3), 99: np.zeros(3)}
        tru = {1: np.zeros(3), 2: np.ones(3), 42: np.zeros(3)}
        report = assess(est, tru)
        assert report.only_estimated == [99]
        assert report.only_truth == [42]
