import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tagbridge import sgm
from tagbridge.geometry import CameraIntrinsics, Pose
from tagbridge.sgm import (
    MIN_CLOUD_DISPARITY,
    PATHS,
    UINT16_MAX,
    CostVolume,
    DisparityMap,
    SgmParams,
    _PathStep,
    aggregate_costs,
    census_bits,
    census_transform,
    disparity_to_cloud,
    matching_cost_volume,
    select_disparity,
)

from oracles import aggregate_one_path, path_step, reference_disparity_to_cloud, reference_select


def params(d_min=0, d_max=16, **kw):
    return SgmParams(d_min=d_min, d_max=d_max, **kw)


def random_dot_pair(shape=(48, 96), shift=7, seed=0):
    """Right image is the left rolled by `shift`; truth disparity = shift."""
    rng = np.random.default_rng(seed)
    left = rng.integers(0, 256, shape).astype(np.uint8)
    right = np.roll(left, -shift, axis=1)
    return left, right


def run_sgm(left, right, p):
    ld = census_transform(left, p.census_window)
    rd = census_transform(right, p.census_window)
    bits = census_bits(p.census_window)
    agg, right_agg = (aggregate_costs(matching_cost_volume(a, b, p.d_min, p.d_max,
                                                           max_cost=bits, base=base), p)
                      for base, a, b in (("left", ld, rd), ("right", rd, ld)))
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
        with pytest.raises(ValueError, match="3x3 image with 5x5 census window"):
            census_transform(np.zeros((3, 3), np.uint8), (5, 5))

    def test_colour_image_raises(self):
        with pytest.raises(ValueError, match="image must be 2-D grayscale"):
            census_transform(np.zeros((10, 12, 3), np.uint8), (3, 3))

    def test_wide_window_multiword(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (11, 13)).astype(np.uint8)
        desc = census_transform(img, (9, 9))  # 80 bits -> 3 words
        assert desc.dtype == np.uint32
        assert desc.shape[-1] == 3

    def test_hand_enumerated_7x7_word_boundary(self):
        # 48 bits: bit 31 is the neighbour (+1, +1), the last of word 0, and
        # bit 32 the neighbour (+1, +2), the first of word 1
        img = np.full((9, 9), 100, np.uint8)
        img[5, 5] = img[5, 6] = 50
        desc = census_transform(img, (7, 7))
        assert desc.shape == (9, 9, 2)
        assert desc[4, 4].tolist() == [1 << 31, 1]

    @pytest.mark.parametrize("window", [(-1, 5), (5, -3), (1, 1), (4, 5)],
                             ids=["negative-height", "negative-width", "no-neighbour", "even"])
    def test_window_needs_odd_positive_sizes_and_a_neighbour(self, window):
        img = np.zeros((10, 12), np.uint8)
        with pytest.raises(ValueError, match="census window"):
            census_transform(img, window)
        with pytest.raises(ValueError, match="census window"):
            params(d_max=15, census_window=window)

    @pytest.mark.parametrize("window", [(1, 3), (3, 1), (5, 5)], ids=["1x3", "3x1", "5x5"])
    def test_thin_windows_accepted(self, window):
        desc = census_transform(np.arange(120, dtype=np.uint8).reshape(10, 12), window)
        assert desc.shape == (10, 12, 1)
        assert desc.any()
        params(d_max=15, census_window=window)

    @pytest.mark.parametrize("window", [(5.0, 5.0), (5, 3.0), (np.float64(3), 5)],
                             ids=["both-float", "width-float", "numpy-float"])
    def test_float_window_rejected(self, window):
        img = np.zeros((10, 12), np.uint8)
        with pytest.raises(ValueError, match="integers"):
            census_transform(img, window)
        with pytest.raises(ValueError, match="integers"):
            params(d_max=15, census_window=window)

    def test_numpy_integer_window_accepted(self):
        img = np.arange(120, dtype=np.uint8).reshape(10, 12)
        window = (np.int64(5), np.int32(3))
        assert np.array_equal(census_transform(img, window), census_transform(img, (5, 3)))
        params(d_max=15, census_window=window)

    def test_nan_pixel_rejected_and_infinities_ordered(self):
        img = np.arange(120, dtype=np.float64).reshape(10, 12)
        img[4, 5] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            census_transform(img, (3, 3))
        # +-inf compare like the largest and smallest finite values
        img[4, 5], img[6, 7] = np.inf, -np.inf
        clipped = img.copy()
        clipped[4, 5], clipped[6, 7] = 1e6, -1e6
        assert np.array_equal(census_transform(img, (3, 3)), census_transform(clipped, (3, 3)))


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
    # include shifts of W or more, whose planes are all max_cost. The costs
    # are uint8 while max(max_cost, 32 * words) <= 255: not for a 17x17
    # census (9 words) or a max_cost of 300
    @pytest.mark.parametrize("shape,window,max_cost,dtype", [
        ((70, 9), (5, 5), 24, np.uint8), ((11, 13), (9, 9), 80, np.uint8),
        ((19, 18), (17, 17), 288, np.uint16), ((11, 13), (5, 5), 300, np.uint16),
    ], ids=["shape0-window0", "shape1-window1", "17x17", "max_cost-300"])
    @pytest.mark.parametrize("base", ["left", "right"])
    def test_matches_per_pixel_reference(self, shape, window, max_cost, dtype, base):
        rng = np.random.default_rng(31)
        left = census_transform(rng.integers(0, 256, shape).astype(np.uint8), window)
        right = census_transform(rng.integers(0, 256, shape).astype(np.uint8), window)
        base_desc, match_desc = (left, right) if base == "left" else (right, left)
        vol = matching_cost_volume(base_desc, match_desc, 3, 14, max_cost=max_cost, base=base)
        expected = reference_cost_volume(base_desc, match_desc, 3, 14, max_cost, base)
        assert vol.costs.dtype == dtype
        assert np.array_equal(vol.costs, expected)

    # a negative d_min puts out-of-bounds matches at both edges; D > W puts
    # every column in the wedge and pads the match raster by more than W
    @pytest.mark.parametrize("W,d_min,d_max",
                             [(23, 0, 9), (23, -6, 9), (17, -9, -2), (11, -4, 15), (9, 3, 14)])
    def test_right_base_is_the_left_base_sheared(self, W, d_min, d_max):
        # C_R[y, x, i] and C_L[y, x + d_min + i, i] compare the same two pixels
        rng = np.random.default_rng([W, d_max - d_min])
        left, right = (census_transform(rng.integers(0, 256, (13, W)).astype(np.uint8), (5, 5))
                       for _ in range(2))
        c_left = matching_cost_volume(left, right, d_min, d_max, max_cost=24).costs
        c_right = matching_cost_volume(right, left, d_min, d_max, max_cost=24, base="right").costs
        x = np.arange(W)[:, None]
        i = np.arange(d_max - d_min + 1)[None, :]
        x_left = x + d_min + i
        inside = (x_left >= 0) & (x_left < W)
        sheared = c_left[:, np.clip(x_left, 0, W - 1), i]
        assert inside.any() and not inside.all()
        assert np.array_equal(c_left, reference_cost_volume(left, right, d_min, d_max, 24, "left"))
        assert np.array_equal(c_right, np.where(inside, sheared, 24))

    def test_memory_bounded(self):
        # beyond the uint8 volume only one block's uint32 XOR words and their
        # popcounts (5 bytes per block cell) and the padded match raster, here
        # under a fifth of that, may be held
        shape = (128, 256, 128)
        rng = np.random.default_rng(15)
        left, right = (census_transform(rng.integers(0, 256, shape[:2]).astype(np.uint8),
                                        (5, 5))
                       for _ in range(2))
        for base in ("left", "right"):
            tracemalloc.start()
            try:
                vol = matching_cost_volume(left, right, 0, shape[2] - 1, max_cost=24, base=base)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert vol.costs.dtype == np.uint8
            assert peak <= vol.costs.nbytes + 2 * 5 * sgm.BLOCK_CELLS

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
        shapes = r"raster shapes differ: \(10, 10, 1\) vs \(10, 12, 1\)"
        with pytest.raises(ValueError, match=shapes):
            matching_cost_volume(a, b, 0, 4, max_cost=8)

    def test_base_must_be_left_or_right(self):
        d = census_transform(np.arange(120, dtype=np.uint8).reshape(10, 12), (3, 3))
        with pytest.raises(ValueError, match="base must be 'left' or 'right'"):
            matching_cost_volume(d, d, 0, 4, max_cost=8, base="up")

    @pytest.mark.parametrize("max_cost", [24.7, 24.0, -1, UINT16_MAX + 1, None],
                             ids=["fractional", "integer-valued-float", "negative",
                                  "beyond-uint16", "none"])
    def test_max_cost_must_be_an_integer_in_uint16_range(self, max_cost):
        d = census_transform(np.arange(120, dtype=np.uint8).reshape(10, 12), (3, 3))
        for edge in (0, np.int64(UINT16_MAX)):
            vol = matching_cost_volume(d, d, 0, 15, max_cost=edge)
            assert vol.costs[:, 0, 1:].tolist() == np.full((10, 15), edge).tolist()
        with pytest.raises(ValueError, match="max_cost"):
            matching_cost_volume(d, d, 0, 15, max_cost=max_cost)


class TestAggregation:
    def test_zero_penalties_collapse_to_n_paths_times_raw(self):
        rng = np.random.default_rng(3)
        C = rng.integers(0, 25, (6, 9, 5)).astype(np.uint16)
        vol = CostVolume(costs=C, d_min=0)
        total = np.zeros(C.shape, np.float32)
        for direction in PATHS:
            total += aggregate_one_path(vol, direction, 0.0, 0.0)
        assert np.array_equal(total, 8.0 * C.astype(np.float32))

    def test_constant_volume_aggregates_to_n_paths_times_c(self):
        C = np.full((5, 7, 4), 6, np.uint16)
        vol = CostVolume(costs=C, d_min=0)
        agg = aggregate_costs(vol, params(d_max=3, p1=4, p2=18))
        assert np.array_equal(agg.costs, np.full(C.shape, 48.0, np.float32))

    def test_single_path_equals_naive_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            C = rng.integers(0, 30, (1, 12, 4)).astype(np.uint16)
            vol = CostVolume(costs=C, d_min=0)
            L = aggregate_one_path(vol, (0, 1), 10.0, 40.0)
            oracle = naive_single_path_oracle(C[0].astype(float), 10.0, 40.0)
            assert np.array_equal(L[0], oracle.astype(np.float32))

    def test_normalized_recursion_matches_plain_dp(self):
        # L(x,d) = M(x,d) - min_k M(x-1,k): the subtracted running minimum
        # telescopes against the plain dynamic program
        rng = np.random.default_rng(5)
        for _ in range(50):
            C = rng.integers(0, 30, (1, 10, 4)).astype(np.uint16)
            vol = CostVolume(costs=C, d_min=0)
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
        for direction in PATHS:
            total += aggregate_one_path(vol, direction, p.p1, p.p2)
        assert np.array_equal(agg.costs, total)

    @pytest.mark.parametrize("base", ["left", "right"])
    # the default penalties, and P1 = P2 - 1 with a large P2, which leaves the x
    # sweep's UINT16_MAX - P1 line padding its smallest margin; the ids lead
    # with the path count
    @pytest.mark.parametrize("p1,p2", [(10, 120), (7999, 8000)], ids=["8", "8-p1=p2-1"])
    @pytest.mark.parametrize("shape", [(1, 9, 5), (8, 1, 5), (6, 8, 1), (1, 1, 1),
                                       (5, 11, 7), (11, 4, 3)])
    def test_sweeps_equal_sum_of_oracle_paths(self, shape, p1, p2, base):
        p = params(p1=p1, p2=p2)
        rng = np.random.default_rng(sum(shape) * 8)
        ceiling = UINT16_MAX // 8 - int(p.p2)  # largest max(C) the bound admits
        for high in (24, ceiling):
            C = rng.integers(0, high + 1, shape).astype(np.uint16)
            C.flat[0] = high
            vol = CostVolume(costs=C, d_min=0, base=base)
            agg = aggregate_costs(vol, p)
            oracle = np.zeros(shape, np.float32)
            for direction in PATHS:
                oracle += aggregate_one_path(vol, direction, p.p1, p.p2)
            assert agg.costs.dtype == np.uint16
            assert agg.base == base
            assert np.array_equal(agg.costs, oracle)

    @pytest.mark.parametrize("base", ["left", "right"])
    # the ids follow each bound with the path count
    @pytest.mark.parametrize("bound", [254, 255, 256], ids=["254-8", "255-8", "256-8"])
    def test_state_dtype_bound_equals_sum_of_oracle_paths(self, bound, base):
        # max(C) + P1 + P2 = 255 is the largest bound stepped in uint8 states;
        # costs of 0 or max(C) >= P2 drive path states to max(C) + P2
        rng = np.random.default_rng([bound, 8, len(base)])
        for p1, p2 in ((10, 120), (5, 20)):
            p = params(p1=p1, p2=p2)
            high = bound - p1 - p2
            for shape in ((7, 9, 6), (10, 5, 4)):
                C = rng.choice(np.array([0, high // 2, high], np.uint16), shape)
                C.flat[0] = high
                vol = CostVolume(costs=C, d_min=0, base=base)
                agg = aggregate_costs(vol, p)
                oracle = np.zeros(shape, np.float32)
                for direction in PATHS:
                    oracle += aggregate_one_path(vol, direction, p.p1, p.p2)
                assert agg.costs.dtype == np.uint16
                assert np.array_equal(agg.costs, oracle)

    @pytest.mark.parametrize("bound,dtype", [(255, np.uint8), (256, np.uint16)])
    def test_state_dtype_follows_bound(self, bound, dtype, monkeypatch):
        # the outputs cannot tell uint8 states from uint16 ones; only the speed can
        seen = []

        class RecordingStep(sgm._PathStep):
            def __init__(self, prev, out, p1, p2, axis=1):
                seen.append(prev.dtype.type)
                super().__init__(prev, out, p1, p2, axis)

        monkeypatch.setattr(sgm, "_PathStep", RecordingStep)
        C = np.zeros((3, 4, 5), np.uint16)
        C[1, 2, 3] = bound - 10 - 120
        aggregate_costs(CostVolume(costs=C, d_min=0), params(d_max=4))
        assert seen == [dtype, dtype]

    @pytest.mark.parametrize("layout", ["fortran", "reversed_columns"])
    def test_sweeps_read_strided_costs(self, layout):
        # the sweeps copy each line of C through its strides
        p = params(d_max=5)
        C = np.random.default_rng(19).integers(0, 25, (9, 12, 6)).astype(np.uint16)
        costs = np.asfortranarray(C) if layout == "fortran" else C[:, ::-1]
        vol = CostVolume(costs=costs, d_min=0)
        oracle = np.zeros(C.shape, np.float32)
        for direction in PATHS:
            oracle += aggregate_one_path(vol, direction, p.p1, p.p2)
        assert np.array_equal(aggregate_costs(vol, p).costs, oracle)

    def test_repeated_interleaved_calls_return_equal_fresh_arrays(self):
        # no buffer outlives its call: the sums of one volume, taken again
        # after the other's, are equal, and every result is its own array
        rng = np.random.default_rng(30)
        p = params(d_max=5)
        vols = [CostVolume(costs=rng.integers(0, 25, (7, 9, 6)).astype(np.uint8), d_min=0),
                CostVolume(costs=rng.integers(0, 400, (5, 11, 6)).astype(np.uint16), d_min=0,
                           base="right")]  # uint8 states, then uint16 ones
        first = []
        for vol in vols:
            oracle = np.zeros(vol.costs.shape, np.float32)
            for direction in PATHS:
                oracle += aggregate_one_path(vol, direction, p.p1, p.p2)
            first.append(oracle)
        results = []
        for _ in range(3):
            for vol, expected in zip(vols, first):
                results.append(aggregate_costs(vol, p).costs)
                assert np.array_equal(results[-1], expected)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(results, 2))

    def test_sum_beyond_uint16_rejected(self):
        p = params(d_max=3)
        ceiling = UINT16_MAX // 8 - int(p.p2)
        C = np.zeros((3, 4, 4), np.uint16)
        C[1, 2, 3] = ceiling
        aggregate_costs(CostVolume(costs=C, d_min=0), p)
        C[1, 2, 3] = ceiling + 1
        with pytest.raises(ValueError, match="uint16"):
            aggregate_costs(CostVolume(costs=C, d_min=0), p)

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


def with_uint8(shapes):
    """(shape, state dtype) cases: uint16 under the ids shape0, shape1, ..., then uint8."""
    return ([pytest.param(s, np.uint16, id=f"shape{i}") for i, s in enumerate(shapes)]
            + [pytest.param(s, np.uint8, id=f"shape{i}-uint8") for i, s in enumerate(shapes)])


def step_states(rng, shape, axis, dtype, high, p1, p2):
    """States for one path step, disparity along `axis`.

    uint16: uniform in 0..high. uint8: real states at max(C) + P1 + P2 = 255,
    each at most max(C) + P2 = 255 - P1 with one of them there, and each
    line's first cell, so its minimum, at most max(C).
    """
    if dtype == np.uint16:
        return rng.integers(0, high + 1, shape, dtype=np.uint16)
    c_max = 255 - p1 - p2
    prev = rng.integers(0, c_max + p2 + 1, shape, dtype=np.uint8)
    by_d = np.moveaxis(prev, axis, 0)
    by_d[-1].flat[0] = c_max + p2
    by_d[0] = rng.integers(0, c_max + 1, by_d[0].shape)
    return prev


class TestPathStep:
    @pytest.mark.parametrize("shape,dtype",
                             with_uint8([(3, 64, 20), (2, 1, 7), (1, 2, 9), (3, 5, 1), (1, 1, 1)]))
    def test_disparity_major_step_equals_path_step(self, shape, dtype):
        # (k, D, m) states step along axis 1 exactly as path_step along its last axis
        rng = np.random.default_rng(sum(shape))
        for high, p1, p2 in ((30, 10, 120), (1000, 7, 23)):
            prev = step_states(rng, shape, 1, dtype, high, p1, p2)
            out = np.empty_like(prev)
            _PathStep(prev, out, p1, p2)()
            expected = path_step(prev.astype(np.int64).transpose(0, 2, 1), p1, p2)
            assert np.array_equal(out, expected.transpose(0, 2, 1))

    @pytest.mark.parametrize("shape,dtype",
                             with_uint8([(2, 240, 64), (1, 7, 9), (3, 1, 8), (2, 5, 1), (1, 1, 2),
                                         (1, 1, 1), (2, 6, 2)]))
    def test_disparity_last_step_equals_path_step(self, shape, dtype):
        # (k, m, D + 2) states padded with iinfo(dtype).max - P1: the flat shifts
        # must not carry one line's edge into the next
        rng = np.random.default_rng(sum(shape) + 1)
        for high, p1, p2 in ((30, 10, 120), (1000, 7, 23)):
            prev = np.full(shape[:2] + (shape[2] + 2,), np.iinfo(dtype).max - p1, dtype)
            prev[..., 1:-1] = step_states(rng, shape, 2, dtype, high, p1, p2)
            out = np.empty_like(prev)
            _PathStep(prev, out, p1, p2, axis=2)()
            assert np.array_equal(out[..., 1:-1],
                                  path_step(prev[..., 1:-1].astype(np.int64), p1, p2))

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint8])
    @pytest.mark.parametrize("axis", [1, 2], ids=["disparity-major", "disparity-last"])
    def test_bound_step_repeated_equals_path_steps(self, axis, dtype):
        # One step bound to its two buffers and applied k times, each time to
        # its last output plus fresh costs as a sweep drives it, equals k
        # applications of path_step. The disparity-last state keeps its pad cells.
        rng = np.random.default_rng([axis, np.dtype(dtype).itemsize])
        p1, p2 = 10, 120
        c_max = 255 - p1 - p2 if dtype == np.uint8 else 1000
        k, m, D = 3, 7, 9
        prev = np.full((k, D, m) if axis == 1 else (k, m, D + 2), np.iinfo(dtype).max - p1, dtype)
        out = np.empty_like(prev)
        # the real states as (k, m, D), the layout of path_step
        real, new = ((prev.transpose(0, 2, 1), out.transpose(0, 2, 1)) if axis == 1
                     else (prev[..., 1:-1], out[..., 1:-1]))
        step = _PathStep(prev, out, p1, p2, axis=axis)
        expected = rng.integers(0, c_max + 1, (k, m, D))
        real[...] = expected
        for _ in range(6):
            step()
            costs = rng.integers(0, c_max + 1, (k, m, D))
            np.add(new, costs, out=real, casting="unsafe")
            expected = path_step(expected, p1, p2) + costs
            assert np.array_equal(real, expected)
        if axis == 2:
            assert (prev[..., [0, -1]] == np.iinfo(dtype).max - p1).all()


class TestParams:
    def test_non_integer_penalties_rejected(self):
        params(p1=10.0, p2=120.0)
        with pytest.raises(ValueError, match="integer"):
            params(p1=10.5)
        with pytest.raises(ValueError, match="integer"):
            params(p2=120.25)

    @pytest.mark.parametrize("kw,message", [
        (dict(lr_max_diff=np.nan), "lr_max_diff must be positive"),
        (dict(uniqueness_ratio=np.nan), "uniqueness_ratio must be finite and >= 1"),
        (dict(uniqueness_ratio=np.inf), "uniqueness_ratio must be finite and >= 1"),
    ], ids=["lr-max-diff-nan", "uniqueness-nan", "uniqueness-inf"])
    def test_rejects_non_finite(self, kw, message):
        params(d_max=63)
        with pytest.raises(ValueError, match=f"^{message}$"):
            params(**kw)

    @pytest.mark.parametrize("kw,message", [
        (dict(d_min=16, d_max=16), "d_min must be < d_max"),
        (dict(p1=120.0, p2=120.0), "penalties must satisfy 0 < P1 < P2"),
        (dict(p1=130.0, p2=120.0), "penalties must satisfy 0 < P1 < P2"),
    ], ids=["empty-disparity-range", "p1-equals-p2", "p1-above-p2"])
    def test_rejects_empty_ranges(self, kw, message):
        with pytest.raises(ValueError, match=message):
            params(**kw)

    @pytest.mark.parametrize("kw", [dict(d_max=15.5), dict(d_max=15.0), dict(d_min=0.5),
                                    dict(d_min=0.5, d_max=4), dict(d_max=np.float64(4)),
                                    dict(census_window=(5.0, 5.0)), dict(census_window=(5, 4.5))],
                             ids=["d-max-half", "d-max-float", "d-min-half", "d-min-half-to-4",
                                  "d-max-numpy-float", "census-float", "census-half"])
    def test_rejects_non_integer_sizes(self, kw):
        params(d_min=np.int64(0), d_max=np.int64(15), census_window=(np.int64(7), 5))
        with pytest.raises(ValueError, match="integers"):
            params(**kw)
        if "census_window" not in kw:  # the cost volume checks its range the same way
            d = census_transform(np.arange(120, dtype=np.uint8).reshape(10, 12), (3, 3))
            with pytest.raises(ValueError, match="integers"):
                matching_cost_volume(d, d, **{"d_min": 0, "d_max": 16, **kw}, max_cost=8)


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
        disp = run_sgm(left, right, p)
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
        disp = run_sgm(left, right, p)
        from tagbridge.sgm import FLAG_LR_FAILED

        assert (disp.flags & FLAG_LR_FAILED).any()

    def test_lr_check_takes_left_then_right_base(self):
        left, right = random_dot_pair(shape=(20, 40), shift=3, seed=15)
        p = params(d_max=6)
        ld, rd = census_transform(left, p.census_window), census_transform(right, p.census_window)
        bits = census_bits(p.census_window)
        agg = {base: aggregate_costs(matching_cost_volume(a, b, p.d_min, p.d_max,
                                                          max_cost=bits, base=base), p)
               for base, a, b in (("left", ld, rd), ("right", rd, ld))}
        select_disparity(agg["left"], p, agg["right"])
        for first, second in (("right", "right"), ("left", "left"), ("right", "left")):
            with pytest.raises(ValueError, match="left-base volume and a right-base"):
                select_disparity(agg[first], p, agg[second])

    def test_left_volume_needs_raw_costs(self):
        # matching_cost_volume output has no raw costs; uniqueness reads them
        left, right = random_dot_pair(shape=(20, 40), shift=3, seed=15)
        p = params(d_max=6)
        ld, rd = census_transform(left, p.census_window), census_transform(right, p.census_window)
        bits = census_bits(p.census_window)
        vol = matching_cost_volume(ld, rd, p.d_min, p.d_max, max_cost=bits)
        right_agg = aggregate_costs(matching_cost_volume(rd, ld, p.d_min, p.d_max,
                                                         max_cost=bits, base="right"), p)
        assert vol.raw is None
        with pytest.raises(ValueError, match="raw costs"):
            select_disparity(vol, p, right_agg)

    def test_volumes_must_share_a_shape(self):
        left, right = random_dot_pair(shape=(20, 40), shift=3, seed=15)
        p = params(d_max=6)
        ld, rd = census_transform(left, p.census_window), census_transform(right, p.census_window)
        bits = census_bits(p.census_window)
        agg = aggregate_costs(matching_cost_volume(ld, rd, p.d_min, p.d_max, max_cost=bits), p)
        right_agg = aggregate_costs(matching_cost_volume(rd[:, 1:], ld[:, 1:], p.d_min, p.d_max,
                                                         max_cost=bits, base="right"), p)
        with pytest.raises(ValueError, match="left and right volumes differ in shape"):
            select_disparity(agg, p, right_agg)

    def test_determinism(self):
        left, right = random_dot_pair(shape=(40, 80), shift=4, seed=13)
        p = params(d_max=9)
        a = run_sgm(left, right, p)
        b = run_sgm(left, right, p)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.flags, b.flags)

    def test_aggregate_and_select_memory_bounded(self):
        # beyond the two uint16 sums (1x the raw volumes) only row buffers
        # and select's per-block temporaries may be allocated
        shape = (128, 256, 128)
        p = params(d_max=shape[2] - 1)
        rng = np.random.default_rng(14)
        left, right = (CostVolume(costs=rng.integers(0, 25, shape, dtype=np.uint16),
                                  d_min=0, base=base)
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


def block_rows(W, D):
    """Rows per block of `select_disparity` on (H, W, D) volumes: the cell rule."""
    return max(1, sgm.BLOCK_CELLS // (W * D))


@pytest.fixture
def small_blocks(monkeypatch):
    """A test-sized BLOCK_CELLS, 5 rows at 40 x 64, so volumes of a few blocks stay small."""
    monkeypatch.setattr(sgm, "BLOCK_CELLS", 5 * 40 * 64)


def select_volume(rng, shape, d_min, base, values):
    """An aggregated-looking CostVolume with its own raw costs, for selection tests.

    `values` is "small" (0..24, many ties), "saturated" (a third of the
    cells 65535, the rest 65534 or small) or "ties" (every fourth row
    constant in both the sums and the raw costs, as on textureless input).
    """
    def draw():
        small = rng.integers(0, 25, shape, dtype=np.uint16)
        if values == "saturated":
            high = rng.choice(np.array([65534, UINT16_MAX], np.uint16), shape)
            return np.where(rng.random(shape) < 0.6, high, small)
        if values == "ties":
            small[::4] = 9
        return small

    return CostVolume(costs=draw(), d_min=d_min, base=base, raw=draw())


def assert_select_matches_reference(shape, d_min, seed, bases=("left", "right")):
    """Blocked selection equals the whole-volume reference on drawn volumes of one shape."""
    D = shape[2]
    rng = np.random.default_rng(seed)
    for values, ratio in itertools.product(("small", "saturated", "ties"), (1.0, 1.05)):
        left, right = (select_volume(rng, shape, d_min, base, values) for base in bases)
        # SgmParams needs d_min < d_max; selection reads the range from the volumes
        p = params(d_min=d_min, d_max=d_min + max(D - 1, 1), uniqueness_ratio=ratio)
        got = select_disparity(left, p, right)
        want = reference_select(left, p, right)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.valid, want.valid)
        assert np.array_equal(got.flags, want.flags)


class TestSelectMatchesOracle:
    # heights span a partial last block; W < D puts every column in the wedge,
    # and a negative d_min puts wedge columns at both image edges
    @pytest.mark.parametrize("d_min", [0, 5, -3])
    @pytest.mark.parametrize("W,D", [(9, 1), (1, 2), (13, 2), (2, 3), (17, 3), (70, 64), (40, 64)])
    @pytest.mark.parametrize("bases", [("left", "right")], ids=["left-lr"])
    def test_bit_identical_to_float32_reference(self, bases, W, D, d_min, small_blocks):
        assert_select_matches_reference((block_rows(W, D) + 3, W, D), d_min, [W, D, d_min + 3, 6],
                                        bases)

    # at the shipped BLOCK_CELLS: a volume that one block holds whole, and rows
    # of more than BLOCK_CELLS cells, which go one row per block
    @pytest.mark.parametrize("shape,rows", [((20, 40, 64), 20), ((3, 2600, 128), 1)],
                             ids=["one-block", "one-row"])
    def test_block_extremes_match_reference(self, shape, rows):
        H, W, D = shape
        assert min(H, block_rows(W, D)) == rows
        assert_select_matches_reference(shape, -3, [H, 7])


class TestUint8RawVolumes:
    """uint8 raw volumes give what the same values give as uint16, down the chain."""

    # costs up to 24 at the defaults step uint8 states; costs up to 255 with
    # P2 = 2000 step uint16 ones
    @pytest.mark.parametrize("high,p2", [(24, 120), (255, 2000)],
                             ids=["uint8-states", "uint16-states"])
    @pytest.mark.parametrize("base", ["left", "right"])
    def test_aggregate_equals_uint16_and_oracle(self, high, p2, base):
        rng = np.random.default_rng([high, len(base)])
        p = params(p2=p2)
        C = rng.integers(0, high + 1, (9, 14, 6), dtype=np.uint8)
        C.flat[0] = high
        vol = CostVolume(costs=C, d_min=0, base=base)
        agg = aggregate_costs(vol, p)
        wide = aggregate_costs(CostVolume(costs=C.astype(np.uint16), d_min=0, base=base), p)
        oracle = np.zeros(C.shape, np.float32)
        for direction in PATHS:
            oracle += aggregate_one_path(vol, direction, p.p1, p.p2)
        assert agg.costs.dtype == np.uint16 and agg.raw is C
        assert np.array_equal(agg.costs, wide.costs)
        assert np.array_equal(agg.costs, oracle)

    @pytest.mark.parametrize("right_base", ["right"], ids=["lr"])
    @pytest.mark.parametrize("d_min", [0, -3])
    def test_select_equals_uint16_and_oracle(self, right_base, d_min, small_blocks):
        # uint8 raw costs under uint16 sums, and uint8 volumes selected
        # unaggregated; 255 fills a third of the cells and every fourth row ties
        shape = (block_rows(23, 9) + 3, 23, 9)
        rng = np.random.default_rng([d_min + 3, 1])

        def draw(dtype):
            v = np.where(rng.random(shape) < 0.3, 255, rng.integers(0, 25, shape))
            v[::4] = 9
            return v.astype(dtype)

        for ratio in (1.0, 1.05):
            p = params(d_min=d_min, d_max=d_min + shape[2] - 1, uniqueness_ratio=ratio)
            for sums in (np.uint16, np.uint8):
                vols = [CostVolume(costs=draw(sums), d_min=d_min, base=base, raw=draw(np.uint8))
                        for base in ("left", right_base)]
                wide = [CostVolume(costs=v.costs.astype(np.uint16), d_min=d_min, base=v.base,
                                   raw=v.raw.astype(np.uint16)) for v in vols]
                got = select_disparity(vols[0], p, vols[1])
                for a in (select_disparity(wide[0], p, wide[1]),
                          reference_select(wide[0], p, wide[1])):
                    assert np.array_equal(got.values, a.values)
                    assert np.array_equal(got.valid, a.valid)
                    assert np.array_equal(got.flags, a.flags)


def cloud_case(case):
    """(disparity map, camera, pose, color) for one case of the reference comparison."""
    rng = np.random.default_rng(len(case))
    H, W = (10, 30) if case == "non-square" else (12, 16)
    cam = (CameraIntrinsics(f=3.7, pixel_pitch=0.0031, x0=21.3, y0=3.6, width=W, height=H)
           if case == "non-square"
           else CameraIntrinsics(f=4.8, pixel_pitch=0.0048, x0=7.5, y0=5.5, width=W, height=H))
    values = rng.uniform(0.5, 60.0, (H, W)).astype(np.float32)
    valid = rng.random((H, W)) < 0.7
    if case == "all-invalid":
        valid[:] = False
    elif case == "one-valid":
        valid[:] = False
        valid[4, 9] = True
    elif case == "at-min-disparity":
        # float32 values just below, nearest to and just above 1e-3 px
        near = np.float32(MIN_CLOUD_DISPARITY)
        values[:, :3] = [np.nextafter(near, np.float32(0)), near, np.nextafter(near, np.float32(1))]
        valid[:, :3] = True
    values[~valid] = sgm.INVALID_DISPARITY
    if case == "strided-disparity":
        values, valid = np.asfortranarray(values), np.asfortranarray(valid)  # column-major
    pose = (Pose(t=[1.5, -2.0, 3.25], r=[0.3, -0.2, 1.1]) if case == "rotated"
            else Pose(t=np.zeros(3), r=np.zeros(3)))
    color = None if case == "no-colour" else rng.integers(0, 256, (H, W, 3), dtype=np.uint8)
    if case == "strided-colour":
        color = color.transpose(1, 0, 2).copy().transpose(1, 0, 2)  # column-major pixels
    disp = DisparityMap(values=values, valid=valid, flags=np.where(valid, 0, 1).astype(np.uint8))
    return disp, cam, pose, color


class TestDisparityToCloud:
    @pytest.mark.parametrize("case", ["colour", "no-colour", "all-invalid", "one-valid",
                                      "at-min-disparity", "non-square", "rotated",
                                      "strided-colour", "strided-disparity"])
    def test_equals_reference(self, case):
        disp, cam, pose, color = cloud_case(case)
        if case.startswith("strided"):
            raster = color if case == "strided-colour" else disp.values
            assert not raster.flags.c_contiguous
        got = disparity_to_cloud(disp, cam, 0.12, pose, color=color)
        expected = reference_disparity_to_cloud(disp, cam, 0.12, pose, color=color)
        assert np.array_equal(got.positions, expected.positions)
        assert np.array_equal(got.colors, expected.colors)
        assert np.array_equal(got.color_valid, expected.color_valid)
        # the map compares with 1e-3 in float32, so float32(1e-3) gives no point
        below = 2 * len(disp.values) if case == "at-min-disparity" else 0
        assert len(got) == {"all-invalid": 0, "one-valid": 1}.get(case, disp.valid.sum() - below)

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
        for color, red, valid in ((rgb, 30, True), (None, 0, False)):  # None: black, invalid
            cloud = disparity_to_cloud(disp, stereo_cam, 0.2, pose, color=color)
            assert cloud.colors.shape == (H * W, 3) and cloud.colors.dtype == np.uint8
            assert cloud.colors[3, 0] == red  # row-major order: pixel (0,3) -> 4th point
            assert cloud.color_valid.tolist() == [valid] * (H * W)

    @pytest.mark.parametrize("baseline", [np.nan, np.inf, 0.0, -0.2])
    @pytest.mark.parametrize("any_valid", [False, True], ids=["all-invalid", "all-valid"])
    def test_baseline_must_be_positive_and_finite(self, stereo_cam, baseline, any_valid):
        from tagbridge.sgm import DisparityMap

        disp = DisparityMap(values=np.full((4, 4), 5.0, np.float32),
                            valid=np.full((4, 4), any_valid), flags=np.zeros((4, 4), np.uint8))
        pose = Pose(t=np.zeros(3), r=np.zeros(3))
        assert len(disparity_to_cloud(disp, stereo_cam, 0.2, pose)) == 16 * any_valid
        with pytest.raises(ValueError, match="baseline must be positive and finite") as raised:
            disparity_to_cloud(disp, stereo_cam, baseline, pose)
        with pytest.raises(ValueError) as expected:
            reference_disparity_to_cloud(disp, stereo_cam, baseline, pose)
        assert str(raised.value) == str(expected.value)

    def test_color_outside_byte_range_rejected(self, stereo_cam):
        from tagbridge.sgm import DisparityMap

        disp = DisparityMap(values=np.full((4, 4), 5.0, np.float32),
                            valid=np.ones((4, 4), bool), flags=np.zeros((4, 4), np.uint8))
        pose = Pose(t=np.zeros(3), r=np.zeros(3))
        for rgb in (np.full((4, 4, 3), 300), np.full((4, 4, 3), 0.5)):
            with pytest.raises(ValueError, match="colors"):
                disparity_to_cloud(disp, stereo_cam, 0.2, pose, color=rgb)
        cloud = disparity_to_cloud(disp, stereo_cam, 0.2, pose, color=np.full((4, 4, 3), 255))
        assert cloud.colors.dtype == np.uint8 and (cloud.colors == 255).all()

    @pytest.mark.parametrize("shape", [(20, 50, 3), (25, 40, 3), (19, 40, 3), (20, 40, 4),
                                       (20, 40)],
                             ids=["wider", "taller", "shorter", "four-channel", "grey"])
    def test_color_must_match_the_map(self, stereo_cam, shape):
        from tagbridge.sgm import DisparityMap

        disp = DisparityMap(values=np.full((20, 40), 5.0, np.float32),
                            valid=np.ones((20, 40), bool), flags=np.zeros((20, 40), np.uint8))
        pose = Pose(t=np.zeros(3), r=np.zeros(3))
        cloud = disparity_to_cloud(disp, stereo_cam, 0.2, pose, color=np.zeros((20, 40, 3)))
        assert len(cloud) == 800
        with pytest.raises(ValueError, match=r"\(20, 40, 3\)") as raised:
            disparity_to_cloud(disp, stereo_cam, 0.2, pose, color=np.zeros(shape))
        with pytest.raises(ValueError) as expected:
            reference_disparity_to_cloud(disp, stereo_cam, 0.2, pose, color=np.zeros(shape))
        assert str(raised.value) == str(expected.value)
