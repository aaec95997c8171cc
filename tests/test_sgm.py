import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tagbridge.errors import DimensionMismatch, ImageTooSmall
from tagbridge.geometry import Pose
from tagbridge.sgm import (
    UINT16_MAX,
    CostVolume,
    SgmParams,
    _PathStep,
    aggregate_costs,
    census_bits,
    census_transform,
    disparity_to_cloud,
    matching_cost_volume,
    select_disparity,
)

from oracles import aggregate_one_path, path_step


def params(d_min=0, d_max=16, **kw):
    return SgmParams(d_min=d_min, d_max=d_max, **kw)


def random_dot_pair(shape=(48, 96), shift=7, seed=0):
    """Right image is the left rolled by `shift`; truth disparity = shift."""
    rng = np.random.default_rng(seed)
    left = rng.integers(0, 256, shape).astype(np.uint8)
    right = np.roll(left, -shift, axis=1)
    return left, right


def run_sgm(left, right, p, with_lr=False):
    ld = census_transform(left, p.census_window)
    rd = census_transform(right, p.census_window)
    bits = census_bits(p.census_window)
    vol = matching_cost_volume(ld, rd, p.d_min, p.d_max, max_cost=bits)
    agg = aggregate_costs(vol, p)
    right_agg = None
    if with_lr:
        rvol = matching_cost_volume(rd, ld, p.d_min, p.d_max, max_cost=bits, base="right")
        right_agg = aggregate_costs(rvol, p)
    return select_disparity(agg, p, right_agg)


def naive_single_path_oracle(C, p1, p2):
    """Left-to-right single-path recursion, plain loops (independent of the library)."""
    W, D = C.shape
    L = np.zeros((W, D))
    L[0] = C[0]
    for x in range(1, W):
        m = min(L[x - 1])
        for d in range(D):
            best = L[x - 1, d]
            if d > 0:
                best = min(best, L[x - 1, d - 1] + p1)
            if d < D - 1:
                best = min(best, L[x - 1, d + 1] + p1)
            best = min(best, m + p2)
            L[x, d] = C[x, d] + best - m
    return L


def plain_dp(C, p1, p2):
    """Unnormalized DP: M(x, d) = minimal energy of any path ending at (x, d)."""
    W, D = C.shape
    M = np.zeros((W, D))
    M[0] = C[0]
    for x in range(1, W):
        for d in range(D):
            best = math.inf
            for k in range(D):
                dd = abs(d - k)
                pen = 0.0 if dd == 0 else (p1 if dd == 1 else p2)
                best = min(best, M[x - 1, k] + pen)
            M[x, d] = C[x, d] + best
    return M


def sequence_energy(C, seq, p1, p2):
    e = sum(C[x, d] for x, d in enumerate(seq))
    for a, b in zip(seq, seq[1:]):
        dd = abs(a - b)
        e += 0.0 if dd == 0 else (p1 if dd == 1 else p2)
    return e


class TestCensus:
    def test_constant_image_all_zero(self):
        desc = census_transform(np.full((10, 12), 77, np.uint8), (5, 5))
        assert not desc.any()

    def test_hand_enumerated_3x3(self):
        # darken the four neighbors preceding the center in row-major order:
        # (-1,-1), (-1,0), (-1,1), (0,-1) -> bits 0..3
        img = np.full((5, 5), 100, np.uint8)
        img[1, 1] = img[1, 2] = img[1, 3] = img[2, 1] = 50
        desc = census_transform(img, (3, 3))
        assert desc[2, 2, 0] == 0b1111

    def test_offset_invariance(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 200, (20, 30)).astype(np.int32)
        a = census_transform(img, (5, 5))
        b = census_transform(img + 17, (5, 5))
        assert np.array_equal(a, b)

    def test_too_small_raises(self):
        with pytest.raises(ImageTooSmall):
            census_transform(np.zeros((3, 3), np.uint8), (5, 5))

    def test_wide_window_multiword(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (11, 13)).astype(np.uint8)
        desc = census_transform(img, (9, 9))  # 80 bits -> 2 words
        assert desc.shape[-1] == 2


def reference_cost_volume(base_desc, match_desc, d_min, d_max, max_cost, base):
    """Per-pixel Hamming costs with Python-int popcounts (independent of the library)."""
    H, W = base_desc.shape[:2]
    out = np.empty((H, W, d_max - d_min + 1), dtype=np.uint16)
    for y in range(H):
        for x in range(W):
            for i, d in enumerate(range(d_min, d_max + 1)):
                xm = x - d if base == "left" else x + d
                out[y, x, i] = max_cost if not 0 <= xm < W else sum(
                    bin(int(a) ^ int(b)).count("1")
                    for a, b in zip(base_desc[y, x], match_desc[y, xm]))
    return out


class TestCostVolume:
    # 70 rows span several row blocks and a partial one; disparities up to 14
    # include shifts of W or more, whose planes are all max_cost
    @pytest.mark.parametrize("shape,window", [((70, 9), (5, 5)), ((11, 13), (9, 9))])
    @pytest.mark.parametrize("base", ["left", "right"])
    def test_matches_per_pixel_reference(self, shape, window, base):
        rng = np.random.default_rng(31)
        left = census_transform(rng.integers(0, 256, shape).astype(np.uint8), window)
        right = census_transform(rng.integers(0, 256, shape).astype(np.uint8), window)
        bits = census_bits(window)
        base_desc, match_desc = (left, right) if base == "left" else (right, left)
        vol = matching_cost_volume(base_desc, match_desc, 3, 14, max_cost=bits, base=base)
        expected = reference_cost_volume(base_desc, match_desc, 3, 14, bits, base)
        assert vol.costs.dtype == np.uint16
        assert np.array_equal(vol.costs, expected)

    def test_identical_images_zero_at_d0(self):
        left, _ = random_dot_pair(shift=0)
        d = census_transform(left, (5, 5))
        vol = matching_cost_volume(d, d, 0, 8, max_cost=24)
        assert not vol.costs[:, :, 0].any()

    def test_shifted_raster_zero_at_shift(self):
        left, right = random_dot_pair(shift=7)
        ld = census_transform(left, (3, 3))
        rd = census_transform(right, (3, 3))
        vol = matching_cost_volume(ld, rd, 0, 15, max_cost=8)
        interior = vol.costs[4:-4, 12:-12, 7]
        assert not interior.any()

    def test_out_of_bounds_maximal(self):
        left, right = random_dot_pair()
        ld = census_transform(left, (5, 5))
        rd = census_transform(right, (5, 5))
        vol = matching_cost_volume(ld, rd, 0, 10, max_cost=24)
        for x in range(10):
            assert np.all(vol.costs[:, x, x + 1:] == 24)

    def test_dimension_mismatch(self):
        a = census_transform(np.zeros((10, 10), np.uint8), (3, 3))
        b = census_transform(np.zeros((10, 12), np.uint8), (3, 3))
        with pytest.raises(DimensionMismatch):
            matching_cost_volume(a, b, 0, 4)


class TestAggregation:
    def test_zero_penalties_collapse_to_n_paths_times_raw(self):
        rng = np.random.default_rng(3)
        C = rng.integers(0, 25, (6, 9, 5)).astype(np.uint16)
        vol = CostVolume(costs=C, d_min=0, d_max=4, max_cost=24)
        total = np.zeros(C.shape, np.float32)
        from tagbridge.sgm import PATHS_8

        for direction in PATHS_8:
            total += aggregate_one_path(vol, direction, 0.0, 0.0)
        assert np.array_equal(total, 8.0 * C.astype(np.float32))

    def test_constant_volume_aggregates_to_n_paths_times_c(self):
        C = np.full((5, 7, 4), 6, np.uint16)
        vol = CostVolume(costs=C, d_min=0, d_max=3, max_cost=24)
        agg = aggregate_costs(vol, params(d_max=3, p1=4, p2=18))
        assert np.array_equal(agg.costs, np.full(C.shape, 48.0, np.float32))

    def test_single_path_equals_naive_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            C = rng.integers(0, 30, (1, 12, 4)).astype(np.uint16)
            vol = CostVolume(costs=C, d_min=0, d_max=3, max_cost=30)
            L = aggregate_one_path(vol, (0, 1), 10.0, 40.0)
            oracle = naive_single_path_oracle(C[0].astype(float), 10.0, 40.0)
            assert np.array_equal(L[0], oracle.astype(np.float32))

    def test_normalized_recursion_matches_plain_dp(self):
        # L(x,d) = M(x,d) - min_k M(x-1,k): the subtracted running minimum
        # telescopes against the plain dynamic program
        rng = np.random.default_rng(5)
        for _ in range(50):
            C = rng.integers(0, 30, (1, 10, 4)).astype(np.uint16)
            vol = CostVolume(costs=C, d_min=0, d_max=3, max_cost=30)
            L = aggregate_one_path(vol, (0, 1), 7.0, 23.0)[0]
            M = plain_dp(C[0].astype(float), 7.0, 23.0)
            for x in range(1, 10):
                shift = M[x - 1].min()
                assert np.allclose(L[x], M[x] - shift, atol=1e-6)

    def test_dp_minimum_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            C = rng.integers(0, 20, (7, 3)).astype(float)
            p1, p2 = 5.0, 11.0
            M = plain_dp(C, p1, p2)
            best_enum = min(
                sequence_energy(C, seq, p1, p2)
                for seq in itertools.product(range(3), repeat=7)
            )
            assert M[-1].min() == best_enum

    def test_eight_paths_equal_sum_of_singles(self):
        left, right = random_dot_pair(shape=(20, 30), shift=3, seed=7)
        ld = census_transform(left, (5, 5))
        rd = census_transform(right, (5, 5))
        vol = matching_cost_volume(ld, rd, 0, 7, max_cost=24)
        p = params(d_max=7)
        agg = aggregate_costs(vol, p)
        total = np.zeros(vol.costs.shape, np.float32)
        for direction in p.directions:
            total += aggregate_one_path(vol, direction, p.p1, p.p2)
        assert np.array_equal(agg.costs, total)

    @pytest.mark.parametrize("base", ["left", "right"])
    @pytest.mark.parametrize("n_paths", [4, 8])
    @pytest.mark.parametrize("shape", [(1, 9, 5), (8, 1, 5), (6, 8, 1), (1, 1, 1),
                                       (5, 11, 7), (11, 4, 3)])
    def test_sweeps_equal_sum_of_oracle_paths(self, shape, n_paths, base):
        p = params(n_paths=n_paths)
        rng = np.random.default_rng(sum(shape) * n_paths)
        ceiling = UINT16_MAX // n_paths - int(p.p2)  # largest max(C) the bound admits
        for high in (24, ceiling):
            C = rng.integers(0, high + 1, shape).astype(np.uint16)
            C.flat[0] = high
            vol = CostVolume(costs=C, d_min=0, d_max=shape[2] - 1, max_cost=high, base=base)
            agg = aggregate_costs(vol, p)
            oracle = np.zeros(shape, np.float32)
            for direction in p.directions:
                oracle += aggregate_one_path(vol, direction, p.p1, p.p2)
            assert agg.costs.dtype == np.uint16
            assert agg.base == base
            assert np.array_equal(agg.costs, oracle)

    @pytest.mark.parametrize("layout", ["fortran", "reversed_columns"])
    def test_sweeps_read_strided_costs(self, layout):
        # the sweeps copy each line of C through its strides
        p = params(d_max=5)
        C = np.random.default_rng(19).integers(0, 25, (9, 12, 6)).astype(np.uint16)
        costs = np.asfortranarray(C) if layout == "fortran" else C[:, ::-1]
        vol = CostVolume(costs=costs, d_min=0, d_max=5, max_cost=24)
        oracle = np.zeros(C.shape, np.float32)
        for direction in p.directions:
            oracle += aggregate_one_path(vol, direction, p.p1, p.p2)
        assert np.array_equal(aggregate_costs(vol, p).costs, oracle)

    def test_sum_beyond_uint16_rejected(self):
        p = params(d_max=3)
        ceiling = UINT16_MAX // 8 - int(p.p2)
        C = np.zeros((3, 4, 4), np.uint16)
        C[1, 2, 3] = ceiling
        # the bound reads max(C) from the volume, not from max_cost
        aggregate_costs(CostVolume(costs=C, d_min=0, d_max=3, max_cost=UINT16_MAX), p)
        C[1, 2, 3] = ceiling + 1
        with pytest.raises(ValueError, match="uint16"):
            aggregate_costs(CostVolume(costs=C, d_min=0, d_max=3, max_cost=24), p)

    def test_backtracked_dp_solution_is_optimal(self):
        # energy of the DP-chosen sequence equals the enumerated optimum (slack 0)
        rng = np.random.default_rng(8)
        for _ in range(10):
            C = rng.integers(0, 20, (8, 4)).astype(float)
            p1, p2 = 6.0, 14.0
            M = plain_dp(C, p1, p2)
            seq = [int(np.argmin(M[-1]))]
            for x in range(len(C) - 1, 0, -1):
                d = seq[-1]
                best_k, best_v = 0, math.inf
                for k in range(4):
                    dd = abs(d - k)
                    pen = 0.0 if dd == 0 else (p1 if dd == 1 else p2)
                    v = M[x - 1, k] + pen
                    if v < best_v:
                        best_k, best_v = k, v
                seq.append(best_k)
            seq.reverse()
            best_enum = min(
                sequence_energy(C, s, p1, p2)
                for s in itertools.product(range(4), repeat=8)
            )
            assert sequence_energy(C, seq, p1, p2) == best_enum


class TestPathStep:
    @pytest.mark.parametrize("shape", [(3, 64, 20), (2, 1, 7), (1, 2, 9), (3, 5, 1), (1, 1, 1)])
    def test_disparity_major_step_equals_path_step(self, shape):
        # (k, D, m) states step along axis 1 exactly as path_step along its last axis
        rng = np.random.default_rng(sum(shape))
        for high, p1, p2 in ((30, 10, 120), (1000, 7, 23)):
            prev = rng.integers(0, high + 1, shape, dtype=np.uint16)
            out = np.empty_like(prev)
            _PathStep(shape, p1, p2)(prev, out)
            expected = path_step(prev.astype(np.int64).transpose(0, 2, 1), p1, p2)
            assert np.array_equal(out, expected.transpose(0, 2, 1))


class TestParams:
    def test_non_integer_penalties_rejected(self):
        params(p1=10.0, p2=120.0)
        with pytest.raises(ValueError, match="integer"):
            params(p1=10.5)
        with pytest.raises(ValueError, match="integer"):
            params(p2=120.25)

    @pytest.mark.parametrize("kw", [dict(lr_max_diff=np.nan), dict(uniqueness_ratio=np.nan),
                                    dict(uniqueness_ratio=np.inf)],
                             ids=["lr-max-diff-nan", "uniqueness-nan", "uniqueness-inf"])
    def test_rejects_non_finite(self, kw):
        params(d_max=63)
        with pytest.raises(ValueError):
            params(**kw)

    @pytest.mark.parametrize("kw", [dict(d_max=15.5), dict(d_max=15.0), dict(d_min=0.5),
                                    dict(census_window=(5.0, 5.0)), dict(census_window=(5, 4.5))],
                             ids=["d-max-half", "d-max-float", "d-min-half", "census-float",
                                  "census-half"])
    def test_rejects_non_integer_sizes(self, kw):
        params(d_min=np.int64(0), d_max=np.int64(15), census_window=(np.int64(7), 5))
        with pytest.raises(ValueError, match="integers"):
            params(**kw)


class TestSelectDisparity:
    def test_identical_images_zero_disparity(self):
        left, _ = random_dot_pair(shift=0, seed=9)
        p = params(d_max=8)
        disp = run_sgm(left, left, p)
        interior = disp.values[4:-4, 10:-10]
        ivalid = disp.valid[4:-4, 10:-10]
        assert ivalid.mean() > 0.95
        assert np.all(np.abs(interior[ivalid]) <= 0.5)

    def test_shifted_stereogram_recovers_shift(self):
        left, right = random_dot_pair(shape=(64, 128), shift=7, seed=10)
        # 7x7 census: on pure random dots the 5x5 descriptor collides often
        # enough (rank-extreme windows) to cost ~3% of pixels to uniqueness
        p = params(d_max=15, census_window=(7, 7))
        disp = run_sgm(left, right, p, with_lr=True)
        # consistent region: x >= shift and clear of the census border
        region_vals = disp.values[4:-4, 10:110]
        region_valid = disp.valid[4:-4, 10:110]
        good = np.abs(region_vals - 7.0) <= 0.5
        assert (good & region_valid).sum() / region_valid.size >= 0.99

    def test_textureless_pair_all_invalid(self):
        flat = np.full((20, 40), 128, np.uint8)
        p = params(d_max=6)
        disp = run_sgm(flat, flat, p)
        assert not disp.valid.any()
        assert disp.values[0, 0] == -1.0

    def test_lr_check_kills_half_occluded_columns(self):
        left, right = random_dot_pair(shape=(32, 64), shift=5, seed=11)
        # corrupt a block of the right image; LR must invalidate the area
        right = right.copy()
        rng = np.random.default_rng(12)
        right[:, 20:30] = rng.integers(0, 256, (32, 10))
        p = params(d_max=10)
        disp = run_sgm(left, right, p, with_lr=True)
        from tagbridge.sgm import FLAG_LR_FAILED

        assert (disp.flags & FLAG_LR_FAILED).any()

    def test_determinism(self):
        left, right = random_dot_pair(shape=(40, 80), shift=4, seed=13)
        p = params(d_max=9)
        a = run_sgm(left, right, p, with_lr=True)
        b = run_sgm(left, right, p, with_lr=True)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.flags, b.flags)

    def test_aggregate_and_select_memory_bounded(self):
        # beyond the two uint16 sums (1x the raw volumes) only row buffers
        # and select's per-block temporaries may be allocated
        shape = (128, 256, 128)
        p = params(d_max=shape[2] - 1)
        rng = np.random.default_rng(14)
        left, right = (CostVolume(costs=rng.integers(0, 25, shape, dtype=np.uint16),
                                  d_min=0, d_max=shape[2] - 1, max_cost=24, base=base)
                       for base in ("left", "right"))
        raw_bytes = left.costs.nbytes + right.costs.nbytes
        tracemalloc.start()
        try:
            select_disparity(aggregate_costs(left, p), p, aggregate_costs(right, p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * raw_bytes

    def test_p2_monotonically_smooths(self):
        # total count of >1 px jumps (over 10 seeds) must not grow with P2
        totals = []
        for p2 in (30.0, 120.0, 400.0):
            count = 0
            for seed in range(10):
                rng = np.random.default_rng(100 + seed)
                left = rng.integers(0, 256, (24, 48)).astype(np.uint8)
                noise = rng.normal(0, 12, left.shape)
                right = np.clip(np.roll(left, -3, axis=1) + noise, 0, 255).astype(np.uint8)
                p = params(d_max=7, p1=10.0, p2=p2)
                disp = run_sgm(left, right, p)
                vals = disp.values
                ok = disp.valid[:, :-1] & disp.valid[:, 1:]
                jumps = np.abs(vals[:, :-1] - vals[:, 1:]) > 1.0
                count += int((jumps & ok).sum())
            totals.append(count)
        assert totals[0] >= totals[1] >= totals[2]


class TestDisparityToCloud:
    def test_constant_disparity_constant_depth(self, stereo_cam):
        from tagbridge.sgm import DisparityMap

        baseline = 0.2
        Z0 = 5.0
        d0 = stereo_cam.focal_px * baseline / Z0
        H, W = 32, 40
        disp = DisparityMap(values=np.full((H, W), d0, np.float32),
                            valid=np.ones((H, W), bool),
                            flags=np.zeros((H, W), np.uint8))
        pose = Pose(t=np.zeros(3), r=np.zeros(3))
        cloud = disparity_to_cloud(disp, stereo_cam, baseline, pose)
        assert len(cloud) == H * W
        assert np.max(np.abs(cloud.positions[:, 2] - Z0)) < 1e-9

    def test_invalid_pixels_skipped(self, stereo_cam):
        from tagbridge.sgm import DisparityMap

        values = np.full((10, 10), 8.0, np.float32)
        valid = np.zeros((10, 10), bool)
        valid[2, 3] = True
        disp = DisparityMap(values=values, valid=valid, flags=np.zeros((10, 10), np.uint8))
        pose = Pose(t=np.zeros(3), r=np.zeros(3))
        cloud = disparity_to_cloud(disp, stereo_cam, 0.2, pose)
        assert len(cloud) == 1

    def test_color_sampling(self, stereo_cam):
        from tagbridge.sgm import DisparityMap

        H, W = 8, 8
        rgb = np.zeros((H, W, 3), np.uint8)
        rgb[:, :, 0] = np.arange(W)[None, :] * 10
        disp = DisparityMap(values=np.full((H, W), 5.0, np.float32),
                            valid=np.ones((H, W), bool),
                            flags=np.zeros((H, W), np.uint8))
        pose = Pose(t=np.zeros(3), r=np.zeros(3))
        cloud = disparity_to_cloud(disp, stereo_cam, 0.2, pose, color=rgb)
        assert cloud.colors is not None
        assert cloud.colors[3, 0] == 30  # row-major order: pixel (0,3) -> 4th point
