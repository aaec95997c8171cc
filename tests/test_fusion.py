import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from tagbridge import fusion
from tagbridge.fusion import (
    _HALF_SPAN,
    _KEY_STRIDES,
    PointCloud,
    VoxelGrid,
    _bounds,
    _occluded,
    _occupancy_table,
    _pack,
    _slots,
    _unpack,
    accumulate,
    colorize_with_occlusion,
    filter_voxels,
)
from tagbridge.geometry import CameraIntrinsics, Pose, project_points

from oracles import reference_accumulate, walk_voxels


def small_cam():
    return CameraIntrinsics(f=4.8, pixel_pitch=0.0048, x0=320.0, y0=240.0,
                            width=640, height=480)


def nadirless_pose(x=0.0, y=0.0, z=0.0):
    # camera at origin looking along +Z (identity rotation)
    return Pose(t=np.array([x, y, z]), r=np.zeros(3))


def wide_cam():
    # 250 px focal length on a square sensor: rays up to 45 degrees off axis
    return CameraIntrinsics(f=1.2, pixel_pitch=0.0048, x0=320.0, y0=320.0,
                            width=640, height=640)


def reference_filter(clouds, grid, min_points):
    """Per-voxel accumulation over a dict, then filter_voxels' selection.

    Each point adds its offset from its voxel's corner, rounded to nearest in
    units of 2**-32 voxel, to Python-integer sums; a centroid is
    (voxel index + sum / count * 2**-32) * voxel size. A color is the
    per-channel mean of the valid colors in exact rational arithmetic,
    rounded half up. Returns (centroids, colors, color_valid, means) in
    voxel-index order, where means are each voxel's exact rational mean point
    as (3,) lists of Fractions.
    """
    voxels = {}
    for cloud in clouds:
        for p, rgb, ok in zip(cloud.positions.tolist(), cloud.colors.tolist(),
                              cloud.color_valid.tolist()):
            scaled = [c / grid.voxel_size for c in p]
            key = tuple(math.floor(c) for c in scaled)
            v = voxels.setdefault(key, {"count": 0, "sum": [0] * 3, "exact": [Fraction(0)] * 3,
                                        "colored": 0, "rgb": [0] * 3})
            v["count"] += 1
            v["sum"] = [s + round((c - k) * 2 ** 32) for s, c, k in zip(v["sum"], scaled, key)]
            v["exact"] = [e + Fraction(c) for e, c in zip(v["exact"], p)]
            if ok:
                v["colored"] += 1
                v["rgb"] = [s + c for s, c in zip(v["rgb"], rgb)]
    positions, colors, valid, means = [], [], [], []
    for key in sorted(voxels):
        v = voxels[key]
        count, colored = v["count"], v["colored"]
        if count < min_points:
            continue
        positions.append((np.array(key) + np.array(v["sum"]) / count * 2.0 ** -32)
                         * grid.voxel_size)
        means.append([e / count for e in v["exact"]])
        valid.append(colored > 0)
        colors.append([math.floor(Fraction(s, colored) + Fraction(1, 2)) for s in v["rgb"]]
                      if colored else (0, 0, 0))
    return np.array(positions), np.array(colors, dtype=np.uint8), np.array(valid), means


def assert_near_exact_means(positions, means, voxel_size):
    """Each centroid lies within 2**-32 voxel of its points' exact mean, plus float64 rounding."""
    for centroid, mean in zip(positions, means):
        for c, m in zip(centroid.tolist(), mean):
            assert abs(Fraction(c) - m) <= 2.0 ** -32 * voxel_size + 4 * np.spacing(abs(c))


def reference_occluded(grid, start_point, point):
    """Whether an occupied voxel other than its two ends lies on one `walk_voxels` walk."""
    start = tuple(grid.voxel_indices(start_point[None, :])[0])
    own = tuple(grid.voxel_indices(point[None, :])[0])
    return any(key not in (start, own) and grid.count(key) >= 1
               for key in walk_voxels(start, own, start_point, point - start_point, grid))


def reference_colorize(cloud, grid, rgb, intrinsics, rgb_pose):
    """One `walk_voxels` walk per candidate point; returns (colors, color_valid)."""
    H, W = rgb.shape[:2]
    pixels, in_front = project_points(intrinsics, rgb_pose, cloud.positions)
    pixels = np.nan_to_num(pixels, nan=-1.0)
    cols = np.round(pixels[:, 0]).astype(int)
    rows = np.round(pixels[:, 1]).astype(int)
    candidates = in_front & (cols >= 0) & (cols < W) & (rows >= 0) & (rows < H)
    colors = np.zeros((len(cloud), 3), dtype=np.uint8)
    valid = np.zeros(len(cloud), dtype=bool)
    for i in np.nonzero(candidates)[0]:
        if not reference_occluded(grid, rgb_pose.t, cloud.positions[i]):
            colors[i] = rgb[rows[i], cols[i]]
            valid[i] = True
    return colors, valid


def stop_steps(grid, start_point, points):
    """The step at which `_occluded` stops each ray, from its `walk_voxels` walk.

    0 for a ray that starts in its point's voxel; else the first step onto
    that voxel or an occupied one, or limit - 1 if it reaches neither.
    """
    start = tuple(grid.voxel_indices(start_point[None, :])[0])
    stops = []
    for point in points:
        own = tuple(grid.voxel_indices(point[None, :])[0])
        limit = sum(abs(a - b) for a, b in zip(own, start)) + 3
        walk = list(walk_voxels(start, own, start_point, point - start_point, grid))[:limit]
        stops.append(0 if own == start else next(
            (s for s, v in enumerate(walk[1:], 1) if v == own or grid.count(v)), limit - 1))
    return np.array(stops)


def compactions(stops):
    """How often `_occluded` compacts rays that stop at `stops` (see stop_steps).

    The rays that stop at step 0 are dropped before the first step; after
    that, the rays are compacted when fewer than half of those held still walk.
    """
    held, count = np.count_nonzero(stops), 0
    for taken in range(1, stops.max()):
        walking = np.count_nonzero(stops > taken)
        if 2 * walking < held:
            held, count = walking, count + 1
    return count


def assert_occluded_matches_reference(grid, start_point, points):
    """The batched walk and one `walk_voxels` walk per point agree; returns the mask."""
    got = _occluded(grid, start_point, points)
    assert got.tolist() == [reference_occluded(grid, start_point, p) for p in points]
    return got


def approach_steps(grid, start_point, occupied_points, queries):
    """L1 steps from the camera's voxel to the box of the occupied and the query voxels."""
    vox = grid.voxel_indices(np.vstack([occupied_points, queries]))
    cam = grid.voxel_indices(start_point[None, :])[0]
    return int((np.maximum(vox.min(axis=0) - cam, 0) + np.maximum(cam - vox.max(axis=0), 0)).sum())


def assert_colorize_matches_reference(cloud, grid, cam, pose):
    """Batched and per-point colorize agree exactly; returns the visible mask."""
    rgb = np.random.default_rng(99).integers(0, 256, (cam.height, cam.width, 3), dtype=np.uint8)
    out = colorize_with_occlusion(cloud, grid, rgb, cam, pose)
    colors, valid = reference_colorize(cloud, grid, rgb, cam, pose)
    assert np.array_equal(out.color_valid, valid)
    assert np.array_equal(out.colors, colors)
    return valid


class TestPointCloud:
    @pytest.mark.parametrize("colors", [[[300, -1, 255]], [[0, 256, 0]], [[0.5, 0, 0]],
                                        [[np.nan, 0, 0]], [[np.inf, 0, 0]]],
                             ids=["wrapping", "above-255", "fractional", "nan", "inf"])
    def test_colors_must_be_integers_in_byte_range(self, colors):
        with pytest.raises(ValueError, match="colors"):
            PointCloud(positions=[[0, 0, 0]], colors=np.array(colors))

    def test_byte_colors_accepted(self):
        every = np.arange(256, dtype=np.uint8).repeat(3).reshape(256, 3)
        assert np.array_equal(PointCloud(positions=np.zeros((256, 3)), colors=every).colors,
                              every)
        cloud = PointCloud(positions=[[0, 0, 0]], colors=[[0, 128, 255]])
        assert cloud.colors.dtype == np.uint8
        assert np.array_equal(cloud.colors, [[0, 128, 255]])
        assert np.array_equal(PointCloud(positions=[[0, 0, 0]],
                                         colors=np.array([[0.0, 7.0, 255.0]])).colors,
                              [[0, 7, 255]])

    def test_colorless_cloud_is_black_and_invalid(self):
        cloud = PointCloud(positions=np.zeros((4, 3)))
        assert cloud.colors.dtype == np.uint8 and np.array_equal(cloud.colors, np.zeros((4, 3)))
        assert cloud.color_valid.dtype == bool and cloud.color_valid.tolist() == [False] * 4

    def test_color_valid_without_colors_rejected(self):
        with pytest.raises(ValueError, match="color_valid given without colors"):
            PointCloud(positions=np.zeros((2, 3)), color_valid=[True, False])


class TestAccumulate:
    @pytest.mark.parametrize("size", [0.0, np.nan, np.inf])
    def test_voxel_size_positive_and_finite(self, size):
        VoxelGrid()
        with pytest.raises(ValueError):
            VoxelGrid(voxel_size=size)

    def test_empty_cloud_no_change(self):
        grid = VoxelGrid(voxel_size=0.1)
        accumulate(grid, PointCloud(positions=np.zeros((0, 3))))
        assert grid.n_voxels == 0

    def test_ten_points_one_voxel(self):
        rng = np.random.default_rng(0)
        pts = 0.31 + 0.08 * rng.random((10, 3))  # strictly inside voxel (3,3,3)
        grid = VoxelGrid(voxel_size=0.1)
        accumulate(grid, PointCloud(positions=pts))
        assert grid.n_voxels == 1
        assert grid.count((3, 3, 3)) == 10
        centroid = filter_voxels(grid, min_points=1).positions[0]
        assert np.allclose(centroid, pts.mean(axis=0), atol=1e-12)

    def test_boundary_point_goes_to_higher_voxel(self):
        grid = VoxelGrid(voxel_size=0.1)
        accumulate(grid, PointCloud(positions=np.array([[0.2, 0.0, 0.0]])))
        assert grid.count((2, 0, 0)) == 1
        assert grid.count((1, 0, 0)) == 0

    def test_negative_coordinates(self):
        grid = VoxelGrid(voxel_size=0.1)
        accumulate(grid, PointCloud(positions=np.array([[-0.05, -0.15, 0.0]])))
        assert grid.count((-1, -2, 0)) == 1

    def test_fresh_grid_filters_to_empty_cloud(self):
        out = filter_voxels(VoxelGrid(voxel_size=0.1), min_points=1)
        assert out.positions.shape == (0, 3)
        assert out.colors.shape == (0, 3) and out.colors.dtype == np.uint8
        assert out.color_valid.shape == (0,) and out.color_valid.dtype == bool

    def test_order_independent_centroids(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-5, 5, (2000, 3)) * np.array([1, 1, 0.3]) + 50.0
        perm = rng.permutation(len(pts))
        # three codes, so majorities and ties both occur across the chunks
        colors = np.array([[9, 0, 0], [0, 9, 0], [0, 0, 9]], np.uint8)[rng.integers(0, 3, len(pts))]
        valid = rng.random(len(pts)) < 0.8
        # one big cloud
        grid_a = VoxelGrid(voxel_size=0.25)
        accumulate(grid_a, PointCloud(positions=pts, colors=colors, color_valid=valid))
        # three shuffled chunks
        grid_b = VoxelGrid(voxel_size=0.25)
        for chunk in np.array_split(perm, 3):
            accumulate(grid_b, PointCloud(positions=pts[chunk], colors=colors[chunk],
                                          color_valid=valid[chunk]))
        assert grid_a.n_voxels == grid_b.n_voxels
        for key in {tuple(k) for k in grid_a.voxel_indices(pts)}:
            assert grid_a.count(key) == grid_b.count(key)
        # rows of both grids are in (x, y, z) voxel order, whatever their base
        assert np.array_equal(grid_a._table, grid_b._table)
        assert np.count_nonzero(grid_a._table[:, 4] >= 2) > 20
        out_a = filter_voxels(grid_a, min_points=1)
        out_b = filter_voxels(grid_b, min_points=1)
        assert np.array_equal(out_a.positions, out_b.positions)
        assert np.array_equal(out_a.color_valid, out_b.color_valid)
        assert np.array_equal(out_a.colors, out_b.colors)

    def test_grid_keeps_no_cloud(self):
        # the grid holds per-voxel state only: an accumulated cloud is freed
        # once the caller drops it
        rng = np.random.default_rng(5)
        cloud = PointCloud(positions=rng.uniform(0, 1, (50, 3)),
                           colors=rng.integers(0, 256, (50, 3)).astype(np.uint8))
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        ref = weakref.ref(cloud)
        del cloud
        assert ref() is None
        assert grid.n_points == 50

    def test_grids_compare_by_identity(self):
        # a grid's contents are its private arrays, so equality is identity:
        # grids with different voxels never compare equal
        grid = accumulate(VoxelGrid(voxel_size=0.1), PointCloud(positions=[[0.0, 0.0, 0.0]]))
        assert grid == grid
        assert grid != VoxelGrid(voxel_size=0.1)
        assert VoxelGrid(voxel_size=0.1) != VoxelGrid(voxel_size=0.2)

    def test_color_counting(self):
        pts = np.zeros((4, 3)) + 0.05
        colors = np.array([[255, 0, 0], [255, 0, 0], [0, 255, 0], [9, 9, 9]], np.uint8)
        valid = np.array([True, True, True, False])
        grid = VoxelGrid(voxel_size=0.1)
        accumulate(grid, PointCloud(positions=pts, colors=colors, color_valid=valid))
        assert grid.count((0, 0, 0)) == 4
        assert grid._table[:, 4].tolist() == [3]
        # the mean of the three valid colors; the invalid one is left out
        assert np.array_equal(filter_voxels(grid, min_points=1).colors[0], (170, 85, 0))

    def test_symmetric_color_noise_fuses_to_base(self):
        # +k and -k noise around a base color that no point carries, in one
        # voxel and in shuffled chunks: the fused color is the base exactly
        rng = np.random.default_rng(16)
        base = np.array([100, 150, 200])
        k = rng.integers(1, 50, (300, 3))
        colors = np.concatenate([base + k, base - k]).astype(np.uint8)
        pts = 0.31 + 0.08 * rng.random((len(colors), 3))
        grid = VoxelGrid(voxel_size=0.1)
        for chunk in np.array_split(rng.permutation(len(colors)), 4):
            accumulate(grid, PointCloud(positions=pts[chunk], colors=colors[chunk]))
        assert grid.n_voxels == 1
        assert np.array_equal(filter_voxels(grid, min_points=1).colors, [base])

    def test_color_state_follows_voxels_not_points(self):
        # 20 000 distinct colors in 40 clouds go into 8 voxels; the key and
        # the (8,) int64 table keep one row per voxel
        rng = np.random.default_rng(17)
        codes = np.arange(20000) * 811  # distinct 24-bit rgb codes
        colors = ((codes[:, None] >> np.array([16, 8, 0])) & 0xFF).astype(np.uint8)
        grid = VoxelGrid(voxel_size=0.5)
        for chunk in np.array_split(np.arange(len(codes)), 40):
            accumulate(grid, PointCloud(positions=rng.uniform(0.0, 1.0, (len(chunk), 3)),
                                        colors=colors[chunk]))
        assert (grid.n_voxels, grid.n_points) == (8, 20000)
        state = {name: a for name, a in vars(grid).items()
                 if isinstance(a, np.ndarray) and name != "_base"}
        assert len(state) == 2
        assert {name: len(a) for name, a in state.items()} == dict.fromkeys(state, 8)
        assert sum(a.nbytes for a in state.values()) == 72 * grid.n_voxels  # key + (8,) row

    def test_chunked_reordered_and_split_grids_equal(self):
        # one cloud; shuffled chunks; the same chunks in reverse; and a split
        # into the points with valid RGB and a colorless cloud of the rest:
        # equal integer tables, so equal centroids and colors to the bit
        rng = np.random.default_rng(20)
        pts = rng.normal(0.0, 0.5, (3000, 3)) + np.array([-20.0, 7.0, 1.5])
        colors = rng.integers(0, 256, (len(pts), 3)).astype(np.uint8)
        valid = rng.random(len(pts)) < 0.7
        chunks = np.array_split(rng.permutation(len(pts)), 7)

        def fused(clouds):
            grid = VoxelGrid(voxel_size=0.25)
            for cloud in clouds:
                accumulate(grid, cloud)
            return grid, filter_voxels(grid, min_points=1)

        grids = [fused([PointCloud(positions=pts, colors=colors, color_valid=valid)]),
                 fused(PointCloud(positions=pts[c], colors=colors[c], color_valid=valid[c])
                       for c in chunks),
                 fused(PointCloud(positions=pts[c], colors=colors[c], color_valid=valid[c])
                       for c in chunks[::-1]),
                 fused([PointCloud(positions=pts[~valid]),
                        PointCloud(positions=pts[valid], colors=colors[valid])])]
        (grid, out), rest = grids[0], grids[1:]
        assert grid._table[:, 0].max() > 20
        for other, other_out in rest:
            assert np.array_equal(other._table, grid._table)
            assert np.array_equal(other_out.positions, out.positions)
            assert np.array_equal(other_out.colors, out.colors)
            assert np.array_equal(other_out.color_valid, out.color_valid)

    def test_sum_reaching_limit_raises_and_leaves_grid(self, monkeypatch):
        # a small stand-in for 2**53: points at the middle of their voxel add
        # 2**31 each, so the limit of 2**35 holds 15 of them and not 16
        monkeypatch.setattr(fusion, "_SUM_LIMIT", 2 ** 35)
        grid = VoxelGrid(voxel_size=0.5)
        accumulate(grid, PointCloud(positions=np.full((10, 3), 0.25)))
        accumulate(grid, PointCloud(positions=np.full((5, 3), 0.25)))
        with pytest.raises(ValueError, match="2\\*\\*53"):
            accumulate(grid, PointCloud(positions=[[0.25, 0.25, 0.25], [3.0, 3.0, 3.0]]))
        assert (grid.n_voxels, grid.n_points) == (1, 15)
        assert np.array_equal(filter_voxels(grid, min_points=1).positions, [[0.25] * 3])

    def test_matches_per_voxel_reference(self):
        # dense voxels and several clouds: centroids and colors are bit-identical
        # to summing each voxel's fixed-point offsets in exact integers
        rng = np.random.default_rng(8)
        grid = VoxelGrid(voxel_size=0.2)
        clouds = []
        for _ in range(3):
            n = 3000
            pts = rng.normal(0.0, 0.4, (n, 3)) + 1e3
            colors = rng.integers(0, 3, (n, 3)).astype(np.uint8) * 100
            clouds.append(PointCloud(positions=pts, colors=colors,
                                     color_valid=rng.random(n) < 0.9))
            accumulate(grid, clouds[-1])
        clouds.append(PointCloud(positions=rng.normal(0.0, 0.4, (500, 3)) + 1e3))
        accumulate(grid, clouds[-1])
        positions, colors, valid, means = reference_filter(clouds, grid, min_points=2)
        out = filter_voxels(grid, min_points=2)
        assert grid._table[:, 0].max() > 50
        assert np.array_equal(out.positions, positions)
        assert_near_exact_means(out.positions, means, grid.voxel_size)
        assert np.array_equal(out.color_valid, valid)
        assert np.array_equal(out.colors, colors)


def assert_accumulate_matches_reference(clouds, voxel_size=0.1):
    """`accumulate` and `reference_accumulate` leave equal grids after every cloud."""
    grid, ref = VoxelGrid(voxel_size=voxel_size), VoxelGrid(voxel_size=voxel_size)
    for cloud in clouds:
        accumulate(grid, cloud)
        reference_accumulate(ref, cloud)
        assert np.array_equal(grid._keys, ref._keys)
        assert np.array_equal(grid._table, ref._table)
        assert np.array_equal(grid._base, ref._base)
        assert grid._base.base is None  # no view into a cloud-sized buffer
    return grid, ref


def reference_case(case):
    """The clouds of one case of the accumulate reference comparison."""
    rng = np.random.default_rng(len(case))
    pts = rng.normal(0.0, 0.6, (4000, 3)) + np.array([-3.0, 12.0, 0.4])
    colors = rng.integers(0, 256, (len(pts), 3)).astype(np.uint8)
    if case == "coloured":
        return [PointCloud(positions=pts, colors=colors)]
    if case == "colourless":
        return [PointCloud(positions=pts)]
    if case == "partly-valid":
        return [PointCloud(positions=pts, colors=colors, color_valid=rng.random(len(pts)) < 0.6)]
    if case == "single-point":
        return [PointCloud(positions=pts[:1], colors=colors[:1])]
    # chunks, colored and colorless, then the whole cloud and a chunk again
    valid = rng.random(len(pts)) < 0.7
    clouds = [PointCloud(positions=pts[c], colors=colors[c], color_valid=valid[c]) if i % 2
              else PointCloud(positions=pts[c])
              for i, c in enumerate(np.array_split(rng.permutation(len(pts)), 5))]
    return clouds + [PointCloud(positions=pts, colors=colors, color_valid=valid), clouds[1]]


class TestAccumulateMatchesReference:
    @pytest.mark.parametrize("case", ["coloured", "colourless", "partly-valid", "single-point",
                                      "chunked-and-re-added"])
    def test_grid_equals_reference(self, case):
        clouds = reference_case(case)
        grid, _ = assert_accumulate_matches_reference(clouds)
        assert grid.n_points == sum(map(len, clouds))

    def test_beyond_span_cloud_raises_and_leaves_grid(self):
        # the last point lies one voxel past the +y edge of the span
        clouds = reference_case("partly-valid")
        grid, ref = assert_accumulate_matches_reference(clouds)
        keys, table, base = grid._keys.copy(), grid._table.copy(), grid._base.copy()
        edge = (grid._base[1] + _HALF_SPAN + 0.5) * grid.voxel_size
        far = PointCloud(positions=np.vstack([clouds[0].positions[:50], [[0.0, edge, 0.0]]]))
        with pytest.raises(ValueError, match="beyond") as raised:
            accumulate(grid, far)
        with pytest.raises(ValueError) as expected:
            reference_accumulate(ref, far)
        assert str(raised.value) == str(expected.value)
        assert np.array_equal(grid._keys, keys)
        assert np.array_equal(grid._table, table)
        assert np.array_equal(grid._base, base)


class TestFilterVoxels:
    def test_min_points_one_keeps_all(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 2, (50, 3))
        grid = accumulate(VoxelGrid(voxel_size=0.5), PointCloud(positions=pts))
        out = filter_voxels(grid, min_points=1)
        assert len(out) == grid.n_voxels

    def test_low_count_voxel_removed(self):
        pts = np.array([[0.05, 0.05, 0.05], [0.06, 0.05, 0.05]])
        grid = accumulate(VoxelGrid(voxel_size=0.1), PointCloud(positions=pts))
        out = filter_voxels(grid, min_points=3)
        assert len(out) == 0

    def test_plane_survives_noise_removed(self):
        rng = np.random.default_rng(3)
        xs, ys = np.meshgrid(np.linspace(0.01, 1.99, 50), np.linspace(0.01, 1.99, 50))
        plane = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
        noise = np.array([[5.0, 5.0, 3.0], [-4.0, 2.0, 1.5], [7.0, -3.0, 2.0],
                          [0.5, 9.0, 4.0], [-6.0, -6.0, 1.0]])
        grid = VoxelGrid(voxel_size=0.2)
        accumulate(grid, PointCloud(positions=plane))
        plane_voxels = grid.n_voxels
        accumulate(grid, PointCloud(positions=noise))
        assert grid.n_voxels == plane_voxels + len(noise)
        out = filter_voxels(grid, min_points=3)
        assert len(out) == plane_voxels
        # every surviving centroid lies on the plane, none at noise spots
        assert np.max(np.abs(out.positions[:, 2])) < 0.2

    def test_monotone_in_min_points(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(0, 1, (500, 3))
        grid = accumulate(VoxelGrid(voxel_size=0.3), PointCloud(positions=pts))
        sizes = [len(filter_voxels(grid, m)) for m in (1, 2, 3, 5, 8)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_min_points_below_one_rejected(self):
        grid = accumulate(VoxelGrid(voxel_size=0.1), PointCloud(positions=[[0.05, 0.05, 0.05]]))
        with pytest.raises(ValueError):
            filter_voxels(grid, min_points=0)

    def test_min_points_nan_rejected(self):
        # NaN fails every count comparison: it would keep no voxel, silently
        grid = accumulate(VoxelGrid(voxel_size=0.1), PointCloud(positions=[[0.05, 0.05, 0.05]]))
        with pytest.raises(ValueError):
            filter_voxels(grid, min_points=np.nan)

    def test_rgb_fraction_zero_emits_geometry_only(self):
        # a voxel none of whose points carries valid RGB survives uncolored
        pts = np.zeros((3, 3)) + 0.05
        grid = accumulate(VoxelGrid(voxel_size=0.1), PointCloud(positions=pts))
        out = filter_voxels(grid, min_points=1)
        assert out.colors.tolist() == [[0, 0, 0]]
        assert out.color_valid.tolist() == [False]
        # beside a colored voxel: kept, black and not color-valid
        colors = np.tile(np.array([[200, 10, 10]], np.uint8), (3, 1))
        accumulate(grid, PointCloud(positions=pts + 1.0, colors=colors))
        accumulate(grid, PointCloud(positions=pts + 2.0, colors=colors,
                                    color_valid=np.zeros(3, bool)))
        out = filter_voxels(grid, min_points=1)
        assert out.color_valid.tolist() == [False, True, False]
        assert out.colors.tolist() == [[0, 0, 0], [200, 10, 10], [0, 0, 0]]


class TestColorize:
    def test_single_point_gets_colored(self):
        cam = small_cam()
        pose = nadirless_pose()
        cloud = PointCloud(positions=np.array([[0.0, 0.0, 3.0]]))
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        rgb = np.full((480, 640, 3), 42, np.uint8)
        out = colorize_with_occlusion(cloud, grid, rgb, cam, pose)
        assert out.color_valid[0]
        assert np.array_equal(out.colors[0], (42, 42, 42))

    @pytest.mark.parametrize("value", [0.6, 300, -5, np.nan],
                             ids=["fractional", "above-255", "negative", "nan"])
    def test_non_byte_sample_rejected(self, value):
        cam = small_cam()
        pose = nadirless_pose()
        cloud = PointCloud(positions=np.array([[0.0, 0.0, 3.0]]))
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        rgb = np.full((480, 640, 3), value)
        with pytest.raises(ValueError, match="colors"):
            colorize_with_occlusion(cloud, grid, rgb, cam, pose)

    def test_far_point_on_same_ray_uncolored(self):
        cam = small_cam()
        pose = nadirless_pose()
        cloud = PointCloud(positions=np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 3.0]]))
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        rgb = np.full((480, 640, 3), 99, np.uint8)
        out = colorize_with_occlusion(cloud, grid, rgb, cam, pose)
        assert out.color_valid[0]
        assert not out.color_valid[1]

    def test_point_behind_camera_uncolored(self):
        cam = small_cam()
        pose = nadirless_pose()
        cloud = PointCloud(positions=np.array([[0.0, 0.0, -2.0]]))
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        rgb = np.full((480, 640, 3), 7, np.uint8)
        out = colorize_with_occlusion(cloud, grid, rgb, cam, pose)
        assert out.colors.tolist() == [[0, 0, 0]] and not out.color_valid.any()

    def test_out_of_frustum_uncolored(self):
        cam = small_cam()
        pose = nadirless_pose()
        cloud = PointCloud(positions=np.array([[50.0, 0.0, 1.0]]))
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        rgb = np.full((480, 640, 3), 7, np.uint8)
        out = colorize_with_occlusion(cloud, grid, rgb, cam, pose)
        assert out.colors.tolist() == [[0, 0, 0]] and not out.color_valid.any()

    def test_never_colors_through_occupied_voxel(self):
        # exhaustive check on a 20^3 grid: every colored point's ray must be
        # free of occupied voxels strictly before its own voxel
        rng = np.random.default_rng(6)
        cam = small_cam()
        pose = nadirless_pose(x=1.05, y=1.05, z=-0.5)
        pts = rng.uniform(0.0, 2.0, (400, 3))
        cloud = PointCloud(positions=pts)
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        rgb = np.full((480, 640, 3), 1, np.uint8)
        out = colorize_with_occlusion(cloud, grid, rgb, cam, pose)
        assert out.color_valid.any()

        # independent sampling check along each colored ray
        for i in np.nonzero(out.color_valid)[0]:
            p = pts[i]
            own = tuple(grid.voxel_indices(p[None, :])[0])
            seg = p - pose.t
            length = np.linalg.norm(seg)
            for s in np.linspace(0.0, 1.0, 2000):
                q = pose.t + s * seg
                key = tuple(grid.voxel_indices(q[None, :])[0])
                if key == own or key == tuple(grid.voxel_indices(pose.t[None, :])[0]):
                    continue
                assert grid.count(key) == 0, (
                    f"point {i} colored through occupied voxel {key}")

    def test_some_occlusion_happens_in_cluttered_scene(self):
        rng = np.random.default_rng(7)
        cam = small_cam()
        pose = nadirless_pose(x=1.0, y=1.0, z=-0.5)
        pts = rng.uniform(0.0, 2.0, (400, 3))
        cloud = PointCloud(positions=pts)
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        rgb = np.full((480, 640, 3), 1, np.uint8)
        out = colorize_with_occlusion(cloud, grid, rgb, cam, pose)
        assert 0 < out.color_valid.sum() < len(cloud)

    @pytest.mark.parametrize("camera", [(1.0, 1.0, -0.5), (1.1, 0.9, 1.05)],
                             ids=["outside", "inside"])
    def test_batched_walk_matches_reference(self, camera):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 2.0, (1500, 3))
        grid = accumulate(VoxelGrid(voxel_size=0.25), PointCloud(positions=pts))
        visible = assert_colorize_matches_reference(
            PointCloud(positions=pts), grid, wide_cam(), nadirless_pose(*camera))
        assert 0 < visible.sum() < len(pts)

    def test_axis_parallel_rays_match_reference(self):
        # one or two zero direction components: t_max stays inf on those axes
        rng = np.random.default_rng(12)
        cx, cy, cz = 1.05, 0.95, -0.4
        z = rng.uniform(0.0, 2.0, 60)
        xy = rng.uniform(0.0, 2.0, (60, 2))
        queries = np.concatenate([
            np.column_stack([np.full(60, cx), np.full(60, cy), z]),  # dx = dy = 0
            np.column_stack([np.full(60, cx), xy[:, 1], z]),  # dx = 0
            np.column_stack([xy[:, 0], np.full(60, cy), z]),  # dy = 0
        ])
        clutter = rng.uniform(0.0, 2.0, (300, 3))
        grid = accumulate(VoxelGrid(voxel_size=0.1), PointCloud(positions=clutter))
        accumulate(grid, PointCloud(positions=queries))
        visible = assert_colorize_matches_reference(
            PointCloud(positions=queries), grid, wide_cam(), nadirless_pose(cx, cy, cz))
        assert 0 < visible.sum() < len(queries)

    @pytest.mark.parametrize("camera", [(0.25, 0.25, 0.25), (0.0, 0.0, 0.0)],
                             ids=["voxel_centre", "voxel_corner"])
    def test_edge_and_corner_ties_match_reference(self, camera):
        # 0.5 m voxels and half-voxel offsets are exact in binary, so rays along
        # (+-1, +-1, 1) and (+-1, 0.5, 1) cross edges and corners with t_max tied
        rng = np.random.default_rng(13)
        cam = np.array(camera)
        steps = np.array([[sx, sy, 1.0] for sx in (-1.0, 1.0) for sy in (-1.0, -0.5, 0.5, 1.0)])
        queries = np.concatenate([cam + k * 0.5 * steps for k in range(1, 7)])
        clutter = cam + rng.integers(-6, 7, (80, 3)) * 0.5 + np.array([0.0, 0.0, 1.5])
        grid = accumulate(VoxelGrid(voxel_size=0.5), PointCloud(positions=clutter))
        accumulate(grid, PointCloud(positions=queries))
        visible = assert_colorize_matches_reference(
            PointCloud(positions=queries), grid, wide_cam(), nadirless_pose(*camera))
        assert 0 < visible.sum() < len(queries)

    def test_point_in_camera_voxel_colored(self):
        pose = nadirless_pose(1.05, 1.05, 0.95)
        rng = np.random.default_rng(14)
        clutter = rng.uniform(0.0, 2.0, (400, 3))
        own = pose.t + np.array([0.02, -0.01, 0.03])  # same 0.1 m voxel as the camera
        cloud = PointCloud(positions=np.vstack([own, clutter]))
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        # the camera's voxel holds `own`, yet occludes neither it nor any other point
        visible = assert_colorize_matches_reference(cloud, grid, wide_cam(), pose)
        assert visible[0]
        assert 0 < visible.sum() < len(cloud)


class TestKeyPacking:
    def test_pack_equals_matmul_form(self):
        # offsets far beyond the span make the products wrap mod 2**64
        rng = np.random.default_rng(17)
        base = np.array([5, -7, 11])
        edges = [[-1, 0, 0], [2 * _HALF_SPAN, 0, 0], [0, 2 * _HALF_SPAN - 1, 0], [0, 0, -1]]
        vox = np.vstack([base + rng.integers(-_HALF_SPAN, _HALF_SPAN, (200, 3)),
                         base + rng.integers(-2 ** 40, 2 ** 40, (200, 3)),
                         base - _HALF_SPAN + np.array(edges)])
        keys, inside = _pack(vox.T, base)
        off = vox - base + _HALF_SPAN
        assert np.array_equal(keys, off @ _KEY_STRIDES)
        assert np.array_equal(inside, np.all((off >= 0) & (off < 2 * _HALF_SPAN), axis=1))
        assert inside[:200].all() and not inside[200:400].any()
        assert inside[400:].tolist() == [False, False, True, False]

    def test_unpack_inverts_pack_across_the_span(self):
        rng = np.random.default_rng(21)
        base = np.array([5, -7, 11])
        edges = np.array([[lo, mid, hi] for lo in (-_HALF_SPAN, _HALF_SPAN - 1)
                          for mid in (-1, 0, 1) for hi in (_HALF_SPAN - 1, -_HALF_SPAN)])
        vox = np.vstack([base + edges, base + edges[:, ::-1],
                         base + rng.integers(-_HALF_SPAN, _HALF_SPAN, (200, 3))])
        keys, inside = _pack(vox.T, base)
        assert inside.all()
        assert np.array_equal(_unpack(keys, base), vox.T)

    def test_bounds_of_sorted_keys(self):
        # voxels on every edge of the span and inside it; the greatest x is not
        # the x of the greatest y or z
        rng = np.random.default_rng(22)
        base = np.array([5, -7, 11])
        edges = np.array([[-_HALF_SPAN, 3, -_HALF_SPAN], [_HALF_SPAN - 1, -4, 9],
                          [0, _HALF_SPAN - 1, -2], [1, -_HALF_SPAN, _HALF_SPAN - 1]])
        for vox in (base + edges, base + rng.integers(-300, 300, (500, 3)), base[None, :]):
            keys = np.unique(_pack(vox.T, base)[0])
            bounds = _bounds(keys, base)
            assert np.array_equal(bounds, np.column_stack([vox.min(axis=0), vox.max(axis=0)]))

    def test_utm_scale_coordinates(self):
        rng = np.random.default_rng(15)
        corner = np.array([5.0e5, 5.4e6, 120.0])  # UTM-size easting and northing
        pts = corner + rng.uniform(0.0, 0.6, (3000, 3))
        colors = rng.integers(0, 2, (3000, 3)).astype(np.uint8) * 200
        cloud = PointCloud(positions=pts, colors=colors)
        grid = accumulate(VoxelGrid(voxel_size=0.05), cloud)

        vox, inverse, counts = np.unique(grid.voxel_indices(pts), axis=0,
                                         return_inverse=True, return_counts=True)
        assert grid.n_voxels == len(vox)
        assert grid.n_points == len(pts)
        assert all(grid.count(k) == c for k, c in zip(map(tuple, vox[::97]), counts[::97]))
        out = filter_voxels(grid, min_points=1)
        means = np.zeros((len(vox), 3))
        np.add.at(means, inverse.ravel(), pts - corner)
        assert np.max(np.abs(out.positions - corner - means / counts[:, None])) < 1e-8
        positions, ref_colors, _, exact = reference_filter([cloud], grid, min_points=1)
        assert np.array_equal(out.positions, positions)
        assert_near_exact_means(out.positions, exact, grid.voxel_size)
        assert np.array_equal(out.colors, ref_colors)

        pose = nadirless_pose(*(corner + np.array([0.3, 0.3, -0.5])))
        visible = assert_colorize_matches_reference(out, grid, wide_cam(), pose)
        assert 0 < visible.sum() < len(out)

    @pytest.mark.parametrize("far", [2 ** 20, -2 ** 20 - 1])
    def test_beyond_span_raises_and_leaves_grid(self, far):
        size = 0.05
        grid = VoxelGrid(voxel_size=size)
        accumulate(grid, PointCloud(positions=[[0.01, 0.01, 0.01]]))  # base voxel (0, 0, 0)
        near = np.sign(far) * (abs(far) - 1)  # the last packable index on that side
        accumulate(grid, PointCloud(positions=[[(near + 0.2) * size, 0.01, 0.01]]))
        assert grid.count((near, 0, 0)) == 1
        with pytest.raises(ValueError):
            accumulate(grid, PointCloud(positions=[[0.5, 0.5, 0.5], [(far + 0.2) * size, 0.01, 0.01]]))
        assert (grid.n_voxels, grid.n_points) == (2, 2)
        assert len(filter_voxels(grid, min_points=1)) == 2
        assert grid.count((far, 0, 0)) == 0

    def test_first_cloud_wider_than_span_raises(self):
        grid = VoxelGrid(voxel_size=0.05)
        with pytest.raises(ValueError):
            accumulate(grid, PointCloud(positions=[[0.0, 0.0, 0.0], [0.0, 0.05 * 2 ** 21, 0.0]]))
        assert grid.n_voxels == 0
        accumulate(grid, PointCloud(positions=[[0.0, 0.05 * 2 ** 21, 0.0]]))
        assert grid.count((0, 2 ** 21, 0)) == 1

    def test_walk_from_beyond_span_raises(self):
        # The camera's voxel lies one row past the +y edge of the span, or one
        # column past the -x edge; packed, its key would alias a voxel on the
        # far edge. No walk from there is answered.
        size = 0.5
        grid = VoxelGrid(voxel_size=size)
        accumulate(grid, PointCloud(positions=[[0.25, 0.25, 0.25]]))  # base voxel (0, 0, 0)
        accumulate(grid, PointCloud(positions=[[0.75, -2 ** 20 * size + 0.25, 0.75]]))
        rgb = np.zeros((640, 640, 3), dtype=np.uint8)
        for x, y in ((0.25, 2 ** 20 * size + 0.25), (-(2 ** 20 + 1) * size + 0.25, 0.25)):
            point = PointCloud(positions=[[x, y - size, 1.25]])
            with pytest.raises(ValueError, match="could leave"):
                colorize_with_occlusion(point, grid, rgb, wide_cam(), nadirless_pose(x, y, 0.25))

    def test_walk_leaving_span_raises(self):
        # The camera sits two voxels inside the +z edge of the span and both
        # queries lie two voxels beyond it, so their walks could leave the
        # span: the query raises. Ten voxels inside the edge, a walk of at most
        # nine voxels to a query six voxels up stays inside and is answered.
        size = 0.5
        edge = 2 ** 20  # first z index beyond the span
        grid = VoxelGrid(voxel_size=size)
        accumulate(grid, PointCloud(positions=[[0.25, 0.25, 0.25]]))  # base voxel (0, 0, 0)
        accumulate(grid, PointCloud(positions=[[0.25, 0.75, -edge * size + 0.25],
                                               [0.75, 0.25, (edge - 1) * size + 0.25]]))
        pose = nadirless_pose(0.25, 0.25, (edge - 2) * size + 0.25)
        queries = PointCloud(positions=[[0.25, 0.25, (edge + 2) * size + 0.25],
                                        [1.25, 0.25, (edge + 2) * size + 0.25]])
        rgb = np.zeros((640, 640, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="could leave"):
            colorize_with_occlusion(queries, grid, rgb, wide_cam(), pose)
        pose = nadirless_pose(0.25, 0.25, (edge - 10) * size + 0.25)
        inside = PointCloud(positions=[[0.25, 0.25, (edge - 4) * size + 0.25]])
        assert assert_colorize_matches_reference(inside, grid, wide_cam(), pose).tolist() == [True]


class TestOcclusionWalk:
    def test_walk_stops_at_its_limit(self):
        # The query's ray leaves its voxel's x range at the t where it enters
        # its y range, and the tie steps x first, so the walk never reaches the
        # query's voxel (0, 1, 1). It stops after its limit, |dx| + |dy| + |dz|
        # + 3 = 5 voxels; the next boundary it would cross is z's, into
        # (-1, 1, 3). Three queries in the camera's voxel stop at once, so the
        # rays are compacted while the long walk is still going.
        size = 0.5
        pose = nadirless_pose(0.25, 0.25, 0.25)
        point = np.array([0.0, 0.5, 0.75])
        walk = list(walk_voxels((0, 0, 0), (0, 1, 1), pose.t, point - pose.t,
                                VoxelGrid(voxel_size=size)))
        assert walk == [(0, 0, 0), (0, 0, 1), (-1, 0, 1), (-1, 1, 1), (-1, 1, 2), (0, 1, 1)]
        queries = PointCloud(positions=[point] + [[0.3, 0.3, 0.45]] * 3)
        for voxel, visible in (((-1, 1, 3), True), ((-1, 1, 2), False)):
            center = (np.array(voxel) + 0.5) * size
            grid = accumulate(VoxelGrid(voxel_size=size), PointCloud(positions=[center]))
            got = assert_colorize_matches_reference(queries, grid, wide_cam(), pose)
            assert got.tolist() == [visible, True, True, True]

    def test_two_plane_map_matches_reference(self):
        # A near plane hides part of a far plane at 0.05 m voxels, as in the
        # benchmark's recolor map. Queries on both planes and in the free
        # space between end their walks from a few steps to about ninety, so
        # the rays still walking halve several times before the last one stops.
        rng = np.random.default_rng(16)
        far = np.column_stack([rng.uniform(-1.0, 1.0, (2, 4000)).T, np.full(4000, 3.0)])
        near = np.column_stack([rng.uniform(-0.3, 0.4, 600), rng.uniform(-0.4, 0.2, 600),
                                np.full(600, 1.5)])
        grid = accumulate(VoxelGrid(voxel_size=0.05), PointCloud(positions=np.vstack([far, near])))
        free = np.column_stack([rng.uniform(-0.5, 0.5, (2, 100)).T, rng.uniform(0.1, 3.2, 100)])
        queries = np.vstack([far[:150], near[:100], free])
        pose = nadirless_pose(0.02, -0.03, 0.0)
        cam_voxel = grid.voxel_indices(pose.t[None, :])
        steps = np.abs(grid.voxel_indices(queries) - cam_voxel).sum(axis=1)
        assert steps.min() < 10 and steps.max() > 60
        visible = assert_colorize_matches_reference(PointCloud(positions=queries), grid,
                                                    wide_cam(), pose)
        assert 0 < visible[:150].sum() < 150  # the near plane hides part of the far one
        assert visible[150:250].all()  # nothing lies in front of the near plane

    def test_walk_compacting_twice_matches_reference(self):
        # Free-space queries from 2 to about 55 voxels ahead of the camera, a
        # far wall and a small near block: the rays stop at many different
        # steps, by arrival, by a hit or in their own voxel, so the walk
        # compacts its rays at least twice before the last one stops.
        rng = np.random.default_rng(23)
        pose = nadirless_pose(0.03, -0.02, 0.0)
        wall = np.column_stack([rng.uniform(-2.0, 2.0, (2, 3000)).T, np.full(3000, 5.5)])
        block = rng.uniform([-0.2, -0.2, 2.0], [0.2, 0.2, 2.4], (300, 3))
        grid = accumulate(VoxelGrid(voxel_size=0.1), PointCloud(positions=np.vstack([wall, block])))
        depth = rng.uniform(0.2, 5.4, 200)
        free = np.column_stack([rng.uniform(-0.4, 0.4, (2, 200)).T * depth[:, None], depth])
        queries = np.vstack([free, wall[:100], block[:50], pose.t + 0.01])
        stops = stop_steps(grid, pose.t, queries)
        assert len(np.unique(stops)) > 20 and compactions(stops) >= 2
        visible = assert_colorize_matches_reference(PointCloud(positions=queries), grid,
                                                    wide_cam(), pose)
        assert 0 < visible[200:300].sum() < 100  # the block hides part of the wall
        assert visible[-1]  # the query in the camera's own voxel

    @pytest.mark.parametrize("n_voxels", [1, 2, 3, 8, 9, 1000])
    def test_occupancy_table_size(self, n_voxels):
        pts = np.column_stack([np.arange(n_voxels) * 0.1 + 0.05, np.full((n_voxels, 2), 0.05)])
        grid = accumulate(VoxelGrid(voxel_size=0.1), PointCloud(positions=pts))
        shift, table = _occupancy_table(grid._keys)
        assert len(table) == 2 ** (64 - int(shift)) >= 8 * n_voxels
        assert table.nbytes <= 2 * grid._keys.nbytes
        assert np.flatnonzero(table).tolist() == np.unique(_slots(grid._keys, shift)).tolist()

    def test_slot_shared_with_occupied_voxel_stays_visible(self):
        # One occupied voxel, (4, 0, 0), so the occupancy table has 8 slots and
        # some empty voxel on the first ray's path shares its slot: the
        # prefilter passes that voxel on to the exact lookup, which finds it
        # empty. The second ray passes through the occupied voxel.
        size = 0.5
        grid = accumulate(VoxelGrid(voxel_size=size), PointCloud(positions=[[2.25, 0.25, 0.25]]))
        shift, table = _occupancy_table(grid._keys)
        path = np.column_stack([np.zeros((20, 2), np.int64), np.arange(1, 21)])
        keys, _ = _pack(path.T, grid._base)
        assert table[_slots(keys, shift)].any()
        assert not any(grid.count(v) for v in map(tuple, path))
        start = np.array([0.25, 0.25, 0.25])
        points = np.array([[0.25, 0.25, 10.75], [4.25, 0.25, 0.25]])
        assert assert_occluded_matches_reference(grid, start, points).tolist() == [False, True]

    def test_camera_far_outside_the_map(self):
        # The camera's voxel lies more than 40 voxel steps from the map's
        # bounding box, so the first steps of every walk find nothing.
        rng = np.random.default_rng(18)
        far = np.column_stack([rng.uniform(-1.0, 1.0, (2, 1500)).T, np.full(1500, 3.0)])
        near = np.column_stack([rng.uniform(-0.3, 0.3, (2, 300)).T, np.full(300, 2.5)])
        grid = accumulate(VoxelGrid(voxel_size=0.05), PointCloud(positions=np.vstack([far, near])))
        pose = nadirless_pose(0.13, -0.08, -0.2)
        vox = grid.voxel_indices(np.vstack([far, near]))
        cam = grid.voxel_indices(pose.t[None, :])[0]
        gap = np.maximum(vox.min(axis=0) - cam, 0) + np.maximum(cam - vox.max(axis=0), 0)
        assert gap.sum() > 40
        queries = PointCloud(positions=np.vstack([far[:150], near[:50]]))
        visible = assert_colorize_matches_reference(queries, grid, wide_cam(), pose)
        assert 0 < visible[:150].sum() < 150
        assert visible[150:].all()

    def test_camera_inside_the_box(self):
        # A room: floor, ceiling and four walls around the camera, and a pillar
        # in front of it. The camera's voxel lies inside the occupied box, so
        # the walk has no approach phase and tests every step from the first.
        rng = np.random.default_rng(24)
        u, v = rng.uniform(-2.0, 2.0, (2, 6000))
        h = np.full(6000, 2.0)
        room = np.vstack([np.column_stack(c) for c in
                          [(u, v, -h + 1.0), (u, v, h + 1.0), (h, u, v + 1.0),
                           (-h, u, v + 1.0), (u, h, v + 1.0), (u, -h, v + 1.0)]])
        pillar = rng.uniform([-0.3, -0.3, 1.0], [0.3, 0.3, 1.4], (400, 3))
        occupied = np.vstack([room, pillar])
        grid = accumulate(VoxelGrid(voxel_size=0.1), PointCloud(positions=occupied))
        pose = nadirless_pose(0.03, 0.02, 0.0)
        queries = np.vstack([room[::40], pillar[:40]])
        assert approach_steps(grid, pose.t, occupied, queries) == 0
        visible = assert_colorize_matches_reference(PointCloud(positions=queries), grid,
                                                    wide_cam(), pose)
        assert 0 < visible.sum() < np.count_nonzero(queries[:, 2] > 0)

    def test_query_nearer_than_the_map(self):
        # The map is a wall 30 voxels ahead; the queries lie between it and the
        # camera, outside the map's box, the first straight ahead on the
        # camera's axis. Their voxels set the box's near face, 5 voxels ahead:
        # a walk that skipped its tests until the wall, 30 steps, would pass
        # the first query's voxel unseen and stop on the wall voxel behind it.
        size = 0.1
        x, y = np.mgrid[-9:10, -9:10].reshape(2, -1) * size + 0.05
        wall = np.column_stack([x, y, np.full(x.size, 3.05)])
        grid = accumulate(VoxelGrid(voxel_size=size), PointCloud(positions=wall))
        pose = nadirless_pose(0.05, 0.05, 0.05)
        rng = np.random.default_rng(25)
        depth = rng.uniform(0.55, 2.9, 60)
        free = np.column_stack([rng.uniform(-0.3, 0.3, (2, 60)).T * depth[:, None], depth])
        queries = np.vstack([[0.05, 0.05, 0.55], free + [0.05, 0.05, 0.0]])
        assert grid.voxel_indices(queries)[:, 2].max() < 30
        assert approach_steps(grid, pose.t, wall, queries) == 5
        assert approach_steps(grid, pose.t, wall, wall) == 30
        visible = assert_colorize_matches_reference(PointCloud(positions=queries), grid,
                                                    wide_cam(), pose)
        assert visible.all()

    def test_zero_length_ray(self):
        # Two queries sit at the camera itself: every t_max is inf, so a step
        # takes axis 0 by the tie rule and adds a zero step. The walk is the
        # camera's voxel alone, and the point is never occluded.
        size = 0.5
        cam = np.array([0.3, 0.3, 0.3])
        grid = accumulate(VoxelGrid(voxel_size=size),
                          PointCloud(positions=[cam, [0.3, 0.3, 1.3], [0.3, 1.3, 0.3]]))
        assert list(walk_voxels((0, 0, 0), (0, 0, 0), cam, np.zeros(3), grid)) == [(0, 0, 0)]
        points = np.array([cam, [0.3, 0.3, 2.3], cam, [0.3, 2.3, 0.3], [2.3, 0.3, 0.3]])
        got = assert_occluded_matches_reference(grid, cam, points)
        assert got.tolist() == [False, True, False, True, False]
