import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from tagbridge.fusion import (
    PointCloud,
    VoxelGrid,
    accumulate,
    colorize_with_occlusion,
    filter_voxels,
)
from tagbridge.geometry import CameraIntrinsics, Pose, project_points

from oracles import walk_voxels


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

    Each cloud adds its per-voxel `.sum(axis=0)` with one Kahan step, as the
    grid does; a color is the per-channel mean of the valid colors in exact
    rational arithmetic, rounded half up. Returns (centroids, colors,
    color_valid) in voxel-index order.
    """
    voxels = {}
    for cloud in clouds:
        for i, key in enumerate(map(tuple, grid.voxel_indices(cloud.positions))):
            voxels.setdefault(key, {}).setdefault(id(cloud), []).append(i)
    positions, colors, valid = [], [], []
    for key in sorted(voxels):
        count, colored, rgb_sum = 0, 0, [0, 0, 0]
        csum, comp = np.zeros(3), np.zeros(3)
        for cloud in clouds:
            members = np.array(voxels[key].get(id(cloud), []), dtype=int)
            if len(members) == 0:
                continue
            count += len(members)
            y = cloud.positions[members].sum(axis=0) - comp
            t = csum + y
            comp = (t - csum) - y
            csum = t
            if cloud.colors is not None:
                for rgb in cloud.colors[members[cloud.color_valid[members]]]:
                    colored += 1
                    rgb_sum = [s + int(c) for s, c in zip(rgb_sum, rgb)]
        if count < min_points:
            continue
        positions.append((csum + comp) / count)
        valid.append(colored > 0)
        colors.append([math.floor(Fraction(s, colored) + Fraction(1, 2)) for s in rgb_sum]
                      if colored else (0, 0, 0))
    return np.array(positions), np.array(colors, dtype=np.uint8), np.array(valid)


def reference_colorize(cloud, grid, rgb, intrinsics, rgb_pose, occlusion_threshold=1):
    """One `walk_voxels` walk per candidate point; returns (colors, color_valid)."""
    H, W = rgb.shape[:2]
    pixels, in_front = project_points(intrinsics, rgb_pose, cloud.positions)
    pixels = np.nan_to_num(pixels, nan=-1.0)
    cols = np.round(pixels[:, 0]).astype(int)
    rows = np.round(pixels[:, 1]).astype(int)
    candidates = in_front & (cols >= 0) & (cols < W) & (rows >= 0) & (rows < H)
    cam_voxel = tuple(grid.voxel_indices(rgb_pose.t[None, :])[0])
    point_voxels = grid.voxel_indices(cloud.positions)
    colors = np.zeros((len(cloud), 3), dtype=np.uint8)
    valid = np.zeros(len(cloud), dtype=bool)
    for i in np.nonzero(candidates)[0]:
        own = tuple(point_voxels[i])
        direction = cloud.positions[i] - rgb_pose.t
        occluded = False
        for key in walk_voxels(cam_voxel, own, rgb_pose.t, direction, grid):
            if key == cam_voxel or key == own:
                continue
            if grid.count(key) >= occlusion_threshold:
                occluded = True
                break
        if not occluded:
            colors[i] = rgb[rows[i], cols[i]]
            valid[i] = True
    return colors, valid


def assert_colorize_matches_reference(cloud, grid, cam, pose, threshold=1):
    """Batched and per-point colorize agree exactly; returns the visible mask."""
    rgb = np.random.default_rng(99).integers(0, 256, (cam.height, cam.width, 3), dtype=np.uint8)
    out = colorize_with_occlusion(cloud, grid, rgb, cam, pose, occlusion_threshold=threshold)
    colors, valid = reference_colorize(cloud, grid, rgb, cam, pose, threshold)
    if out.colors is None:
        assert not valid.any()
    else:
        assert np.array_equal(out.color_valid, valid)
        assert np.array_equal(out.colors, colors)
    return valid


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
        assert np.array_equal(grid_a._colored, grid_b._colored)
        assert np.count_nonzero(grid_a._colored >= 2) > 20
        out_a = filter_voxels(grid_a, min_points=1)
        out_b = filter_voxels(grid_b, min_points=1)
        assert np.max(np.abs(out_a.positions - out_b.positions)) < 1e-12
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

    def test_color_counting(self):
        pts = np.zeros((4, 3)) + 0.05
        colors = np.array([[255, 0, 0], [255, 0, 0], [0, 255, 0], [9, 9, 9]], np.uint8)
        valid = np.array([True, True, True, False])
        grid = VoxelGrid(voxel_size=0.1)
        accumulate(grid, PointCloud(positions=pts, colors=colors, color_valid=valid))
        assert grid.count((0, 0, 0)) == 4
        assert grid._colored.tolist() == [3]
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
        # 20 000 distinct colors in 40 clouds go into 8 voxels; every
        # per-voxel array keeps one row per voxel
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
        assert len(state) == 6
        assert {name: len(a) for name, a in state.items()} == dict.fromkeys(state, 8)

    def test_matches_per_voxel_reference(self):
        # dense voxels and several clouds: centroids and colors are bit-identical
        # to summing each voxel's points in cloud order with one Kahan step per cloud
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
        positions, colors, valid = reference_filter(clouds, grid, min_points=2)
        out = filter_voxels(grid, min_points=2)
        assert grid._count.max() > 50
        assert np.array_equal(out.positions, positions)
        assert np.array_equal(out.color_valid, valid)
        assert np.array_equal(out.colors, colors)


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

    def test_rgb_fraction_filter(self):
        # voxel A: 3/4 colored; voxel B: 1/4 colored
        pts_a = np.zeros((4, 3)) + 0.05
        pts_b = np.zeros((4, 3)) + np.array([1.05, 0.05, 0.05])
        colors = np.tile(np.array([[200, 10, 10]], np.uint8), (4, 1))
        cloud_a = PointCloud(positions=pts_a, colors=colors,
                             color_valid=np.array([True, True, True, False]))
        cloud_b = PointCloud(positions=pts_b, colors=colors,
                             color_valid=np.array([True, False, False, False]))
        grid = VoxelGrid(voxel_size=0.1)
        accumulate(grid, cloud_a)
        accumulate(grid, cloud_b)
        out = filter_voxels(grid, min_points=1, min_rgb_fraction=0.5)
        assert len(out) == 1
        assert np.array_equal(out.colors[0], (200, 10, 10))

    def test_rgb_fraction_zero_emits_geometry_only(self):
        pts = np.zeros((3, 3)) + 0.05
        grid = accumulate(VoxelGrid(voxel_size=0.1), PointCloud(positions=pts))
        out = filter_voxels(grid, min_points=1, min_rgb_fraction=0.0)
        assert len(out) == 1
        assert out.colors is None


class TestColorize:
    def test_single_point_gets_colored(self):
        cam = small_cam()
        pose = nadirless_pose()
        cloud = PointCloud(positions=np.array([[0.0, 0.0, 3.0]]))
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        rgb = np.full((480, 640, 3), 42, np.uint8)
        out = colorize_with_occlusion(cloud, grid, rgb, cam, pose)
        assert out.colors is not None
        assert out.color_valid[0]
        assert np.array_equal(out.colors[0], (42, 42, 42))

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
        assert out.colors is None or not out.color_valid.any()

    def test_out_of_frustum_uncolored(self):
        cam = small_cam()
        pose = nadirless_pose()
        cloud = PointCloud(positions=np.array([[50.0, 0.0, 1.0]]))
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        rgb = np.full((480, 640, 3), 7, np.uint8)
        out = colorize_with_occlusion(cloud, grid, rgb, cam, pose)
        assert out.colors is None or not out.color_valid.any()

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
        assert out.colors is not None

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

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    @pytest.mark.parametrize("camera", [(1.0, 1.0, -0.5), (1.1, 0.9, 1.05)],
                             ids=["outside", "inside"])
    def test_batched_walk_matches_reference(self, threshold, camera):
        rng = np.random.default_rng(10 + threshold)
        pts = rng.uniform(0.0, 2.0, (1500, 3))
        grid = accumulate(VoxelGrid(voxel_size=0.25), PointCloud(positions=pts))
        assert grid._count.max() > threshold
        visible = assert_colorize_matches_reference(
            PointCloud(positions=pts), grid, wide_cam(), nadirless_pose(*camera), threshold)
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
        accumulate(grid, PointCloud(positions=np.repeat(own[None, :], 5, axis=0)))
        visible = assert_colorize_matches_reference(cloud, grid, wide_cam(), pose, threshold=2)
        assert visible[0]

    def test_threshold_below_one_rejected(self):
        cloud = PointCloud(positions=np.array([[0.0, 0.0, 3.0]]))
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        rgb = np.zeros((480, 640, 3), np.uint8)
        with pytest.raises(ValueError):
            colorize_with_occlusion(cloud, grid, rgb, small_cam(), nadirless_pose(),
                                    occlusion_threshold=0)

    def test_threshold_nan_rejected(self):
        # NaN would count no voxel as occupied, so the far point behind the
        # near one on the same ray would be colored
        cloud = PointCloud(positions=np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 3.0]]))
        grid = accumulate(VoxelGrid(voxel_size=0.1), cloud)
        rgb = np.zeros((480, 640, 3), np.uint8)
        with pytest.raises(ValueError):
            colorize_with_occlusion(cloud, grid, rgb, small_cam(), nadirless_pose(),
                                    occlusion_threshold=np.nan)


class TestKeyPacking:
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
        positions, ref_colors, _ = reference_filter([cloud], grid, min_points=1)
        assert np.array_equal(out.positions, positions)
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

    def test_walk_beyond_span_counts_as_empty(self):
        # The camera's voxel and the ray's next voxel lie one row past the +y
        # edge of the span; packed without the span check, that next voxel
        # would alias the occupied voxel (1, -2**20, 1) on the far -y edge.
        size = 0.5
        grid = VoxelGrid(voxel_size=size)
        accumulate(grid, PointCloud(positions=[[0.25, 0.25, 0.25]]))  # base voxel (0, 0, 0)
        accumulate(grid, PointCloud(positions=[[0.75, -2 ** 20 * size + 0.25, 0.75]]))
        assert grid.count((1, -2 ** 20, 1)) == 1
        pose = nadirless_pose(0.25, 2 ** 20 * size + 0.25, 0.25)
        point = PointCloud(positions=[[0.25, (2 ** 20 - 1) * size + 0.25, 1.25]])
        visible = assert_colorize_matches_reference(point, grid, wide_cam(), pose)
        assert visible[0]
