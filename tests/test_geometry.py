import math

import numpy as np
import pytest

from tagbridge.geometry import (
    CameraIntrinsics,
    Pose,
    RigidTransform,
    _checked,
    _group_sums,
    angles_from_rotation,
    apply_transform,
    pixels_to_directions,
    project_points,
    rotation_from_angles,
)
from tagbridge.register import LocalTagSighting, Trajectory
from tagbridge.triangulate import TagLandmark, TagObservation


def aerial_camera(**kw):
    # 50 mm lens on a 16 MPix sensor with 7.4 um pixels
    args = dict(f=50.0, pixel_pitch=0.0074, x0=2432.0, y0=1616.0, width=4864, height=3232)
    args.update(kw)
    return CameraIntrinsics(**args)


def nadir_pose(x=0.0, y=0.0, z=100.0):
    # omega = pi turns the viewing axis from world +Z to world -Z
    return Pose(t=np.array([x, y, z]), r=np.array([math.pi, 0.0, 0.0]))


def reference_angles(R):
    """The per-matrix branch form of angles_from_rotation, in math-module arithmetic."""
    cp = math.hypot(R[0, 0], R[1, 0])
    phi = math.atan2(-R[2, 0], cp)
    if cp < 1e-12:
        kappa = -math.atan2(R[0, 1], R[0, 2]) if R[2, 0] < 0 else math.atan2(-R[0, 1], -R[0, 2])
        return np.array([0.0, phi, kappa])
    return np.array([math.atan2(R[2, 1], R[2, 2]), phi, math.atan2(R[1, 0], R[0, 0])])


def random_rotation(rng):
    return rotation_from_angles(rng.uniform(-math.pi / 2 + 0.1, math.pi / 2 - 0.1, 3))


def seeded_angle_rows(seed):
    """1-12 (omega, phi, kappa) rows; phi lies exactly on a pole in about a
    quarter of them and at least 1e-9 from one otherwise, well outside the
    1e-12 pole band."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    rows = rng.uniform([-math.pi, -math.pi / 2 + 1e-9, -math.pi],
                       [math.pi, math.pi / 2 - 1e-9, math.pi], (n, 3))
    pole = rng.random(n) < 0.25
    rows[pole, 1] = rng.choice([-math.pi / 2, math.pi / 2], int(pole.sum()))
    return rows.tolist()


# Fixed inputs, so every pytest invocation checks the same ones: Hypothesis
# mixes constants from all imported test modules into its draws, even when
# derandomized. The explicit rows are the two poles and phi = 1.5625, where
# an asin-form reference misses the atan2 form by 2e-15.
BATCHED_ANGLE_CASES = ([[(0.5, math.pi / 2, -1.0)], [(0.5, -math.pi / 2, -1.0)],
                        [(0.0, 1.5625, 0.0)]]
                       + [seeded_angle_rows(seed) for seed in range(100)])


class TestRotation:
    def test_zero_angles_identity(self):
        assert np.allclose(rotation_from_angles((0, 0, 0)), np.eye(3), atol=1e-15)

    def test_half_turn_about_x(self):
        R = rotation_from_angles((math.pi, 0, 0))
        assert np.allclose(R, np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_matches_elementary_composition(self):
        # independent construction from the three elementary matrices
        o, p, k = np.radians([10.0, 20.0, 30.0])
        Rx = np.array([[1, 0, 0], [0, math.cos(o), -math.sin(o)], [0, math.sin(o), math.cos(o)]])
        Ry = np.array([[math.cos(p), 0, math.sin(p)], [0, 1, 0], [-math.sin(p), 0, math.cos(p)]])
        Rz = np.array([[math.cos(k), -math.sin(k), 0], [math.sin(k), math.cos(k), 0], [0, 0, 1]])
        assert np.allclose(rotation_from_angles((o, p, k)), Rz @ Ry @ Rx, atol=1e-15)

    def test_always_proper_rotation(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            R = rotation_from_angles(rng.uniform(-2 * math.pi, 2 * math.pi, 3))
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_angles_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            angles = rng.uniform([-math.pi, -math.pi / 2 + 1e-9, -math.pi],
                                 [math.pi, math.pi / 2 - 1e-9, math.pi])
            R = rotation_from_angles(angles)
            back = angles_from_rotation(R)
            assert np.allclose(rotation_from_angles(back), R, atol=1e-12)

    @pytest.mark.parametrize("phi", [math.pi / 2 - 1e-6, -math.pi / 2 + 1e-6],
                             ids=["north", "south"])
    def test_angles_round_trip_near_pole(self, phi):
        # cos phi = 1e-6 lies well outside the 1e-12 pole band, so omega and
        # kappa are both recovered and the round trip holds to 1e-12
        rng = np.random.default_rng(12)
        omega, kappa = rng.uniform(-math.pi, math.pi, (2, 2000))
        R = rotation_from_angles(np.column_stack([omega, np.full(2000, phi), kappa]))
        back = angles_from_rotation(R)
        assert np.max(np.abs(rotation_from_angles(back) - R)) < 1e-12

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(3)
        angles = rng.uniform(-3, 3, (5, 3))
        batch = rotation_from_angles(angles)
        for i in range(5):
            assert np.array_equal(batch[i], rotation_from_angles(angles[i]))

    def test_batched_angles_match_scalar_and_round_trip(self):
        for angles in BATCHED_ANGLE_CASES:
            R = rotation_from_angles(np.array(angles))
            batch = angles_from_rotation(R)
            assert batch.shape == (len(angles), 3)
            for i in range(len(angles)):
                assert np.array_equal(batch[i], angles_from_rotation(R[i]))
                # numpy's and the math module's hypot/atan2 may differ by an ulp
                assert np.max(np.abs(batch[i] - reference_angles(R[i]))) < 1e-15
            assert np.max(np.abs(rotation_from_angles(batch) - R)) < 1e-12
            poles = np.abs(np.abs(batch[:, 1]) - math.pi / 2) < 1e-12
            assert np.all(batch[poles, 0] == 0.0)


class TestProject:
    def test_optical_axis_hits_principal_point(self):
        cam = aerial_camera()
        px, in_front = project_points(cam, nadir_pose(), np.zeros((1, 3)))
        assert in_front.tolist() == [True]
        assert np.allclose(px[0], (cam.x0, cam.y0), atol=1e-9)

    def test_offset_follows_similar_triangles(self):
        cam = aerial_camera()
        pxs, in_front = project_points(cam, nadir_pose(), np.array([[1.0, 0.0, 0.0]]))
        assert in_front.tolist() == [True]
        px = pxs[0]
        expected_offset = 50.0 * (1.0 / 100.0) / 0.0074
        assert abs(px[0] - cam.x0 - expected_offset) < 1e-9
        assert abs(expected_offset - 67.567567) < 1e-3
        assert abs(px[1] - cam.y0) < 1e-9

    def test_behind_camera_masked(self):
        # depths -100 m, 0 (the projection center), 1e-10 m and 1e-3 m
        cam = aerial_camera()
        pts = np.array([[0.0, 0.0, 200.0], [0.0, 0.0, 100.0], [0.0, 0.0, 100.0 - 1e-10],
                        [0.0, 0.0, 100.0 - 1e-3]])
        px, in_front = project_points(cam, nadir_pose(), pts)
        assert in_front.tolist() == [False, False, False, True]
        assert np.all(np.isnan(px[:3])) and np.isfinite(px[3]).all()

    def test_project_points_masks_behind(self):
        cam = aerial_camera()
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 200.0]])
        px, in_front = project_points(cam, nadir_pose(), pts)
        assert in_front.tolist() == [True, False]
        assert np.all(np.isnan(px[1]))


class TestPixelsToDirections:
    def test_principal_point_gives_optical_axis(self):
        cam = aerial_camera()
        pose = nadir_pose()
        direction = pixels_to_directions(cam, pose.rotation(), np.array([[cam.x0, cam.y0]]))[0]
        assert np.allclose(direction, (0.0, 0.0, -1.0), atol=1e-12)

    def test_round_trip_ray_passes_through_point(self):
        cam = aerial_camera()
        rng = np.random.default_rng(17)
        pose = Pose(t=np.array([3.0, -2.0, 120.0]), r=np.array([math.pi + 0.05, -0.03, 0.4]))
        for _ in range(50):
            point = np.array([rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(-5, 5)])
            pxs, in_front = project_points(cam, pose, point[None, :])
            px = pxs[0]
            if not in_front[0] or not cam.in_bounds(px):
                continue
            direction = pixels_to_directions(cam, pose.rotation(), px[None, :])[0]
            depth = np.dot(point - pose.t, direction)
            closest = pose.t + depth * direction
            assert np.linalg.norm(closest - point) < 1e-9

    def test_per_pixel_rotations_match_one_call_per_pose(self):
        cam = aerial_camera()
        rng = np.random.default_rng(19)
        rotations = rotation_from_angles(rng.uniform(-0.3, 0.3, (4, 3)) + (math.pi, 0.0, 0.0))
        pixels = rng.uniform((0.0, 0.0), (cam.width - 1.0, cam.height - 1.0), (40, 2))
        which = rng.integers(0, 4, 40)
        mixed = pixels_to_directions(cam, rotations[which], pixels)
        for k in range(4):
            alone = pixels_to_directions(cam, rotations[k], pixels[which == k])
            assert np.array_equal(mixed[which == k], alone)


class TestRigidTransform:
    def test_identity(self):
        p = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(apply_transform(RigidTransform(np.eye(3), np.zeros(3)), p), p)

    def test_pure_translation(self):
        T = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(apply_transform(T, np.zeros(3)), (1.0, 2.0, 3.0))

    def test_preserves_pairwise_distances_at_unit_scale(self):
        rng = np.random.default_rng(29)
        T = RigidTransform(random_rotation(rng), rng.uniform(-5, 5, 3))
        pts = rng.uniform(-50, 50, (20, 3))
        mapped = apply_transform(T, pts)
        d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d1 = np.linalg.norm(mapped[:, None] - mapped[None, :], axis=-1)
        assert np.max(np.abs(d0 - d1)) < 1e-12 * max(1.0, d0.max())

    def test_inverse(self):
        rng = np.random.default_rng(31)
        T = RigidTransform(random_rotation(rng), rng.uniform(-5, 5, 3))
        p = rng.uniform(-10, 10, 3)
        assert np.allclose(apply_transform(T.inverse(), apply_transform(T, p)), p, atol=1e-12)

    def test_rejects_improper_rotation(self):
        with pytest.raises(ValueError, match=r"rotation must be proper \(det \+1\)"):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError, match="rotation must be orthonormal"):
            RigidTransform(np.diag([1.0, 1.0, 1.0 + 1e-9]), np.zeros(3))


class TestValidation:
    def test_intrinsics_invariants(self):
        with pytest.raises(ValueError):
            aerial_camera(f=-1.0)
        with pytest.raises(ValueError):
            aerial_camera(pixel_pitch=0.0)
        with pytest.raises(ValueError):
            aerial_camera(x0=9999.0)

    @pytest.mark.parametrize("size", [dict(width=np.inf), dict(height=np.inf),
                                      dict(width=4864.5), dict(height=3232.5),
                                      dict(width=np.nan), dict(height=0)],
                             ids=["width-inf", "height-inf", "width-half", "height-half",
                                  "width-nan", "height-zero"])
    def test_sensor_size_must_be_whole_and_finite(self, size):
        with pytest.raises(ValueError, match="whole number"):
            aerial_camera(**size)

    def test_sensor_sizes_accepted(self):
        # the default aerial camera, a stereo camera sized from an image's
        # shape, numpy integers and integer-valued floats
        H, W = np.zeros((240, 320), np.uint8).shape
        stereo = CameraIntrinsics(f=1.2, pixel_pitch=0.0048, x0=(W - 1) / 2.0,
                                  y0=(H - 1) / 2.0, width=W, height=H)
        for cam in (aerial_camera(), stereo,
                    aerial_camera(width=np.int64(4864), height=3232.0)):
            assert cam.in_bounds((cam.width - 1, cam.height - 1))
            assert not cam.in_bounds((cam.width, 0))

    def test_pose_requires_finite(self):
        with pytest.raises(ValueError):
            Pose(t=np.array([np.nan, 0, 0]), r=np.zeros(3))

    def test_in_bounds_takes_pixel_arrays(self):
        cam = aerial_camera()
        px = np.array([[-0.5, 0.0], [-0.51, 0.0], [cam.width - 0.5, 0.0],
                       [cam.width - 0.51, cam.height - 0.51], [np.nan, 0.0]])
        expected = [True, False, False, True, False]
        assert cam.in_bounds(px).tolist() == expected
        assert [bool(cam.in_bounds(p)) for p in px] == expected
        assert [bool(cam.in_bounds(tuple(p))) for p in px] == expected
        assert cam.in_bounds(px.reshape(5, 1, 2)).shape == (5, 1)


# (initial array, build an object from it and return the array it holds)
HELD_ARRAYS = {
    "Pose.t": (np.zeros(3), lambda a: Pose(t=a, r=np.zeros(3)).t),
    "Pose.r": (np.zeros(3), lambda a: Pose(t=np.zeros(3), r=a).r),
    "RigidTransform.rotation": (np.eye(3), lambda a: RigidTransform(a, np.zeros(3)).rotation),
    "RigidTransform.translation": (np.zeros(3),
                                   lambda a: RigidTransform(np.eye(3), a).translation),
    "LocalTagSighting.local_vector": (np.zeros(3),
                                      lambda a: LocalTagSighting(1, a).local_vector),
    "Trajectory.timestamps": (np.arange(2.0), lambda a: Trajectory(
        a, np.zeros((2, 3)), np.zeros((2, 3))).timestamps),
    "Trajectory.t": (np.zeros((2, 3)), lambda a: Trajectory(
        np.arange(2.0), a, np.zeros((2, 3))).t),
    "Trajectory.r": (np.zeros((2, 3)), lambda a: Trajectory(
        np.arange(2.0), np.zeros((2, 3)), a).r),
    "TagObservation.pixel": (np.zeros(2), lambda a: TagObservation("img", 1, a).pixel),
    "TagLandmark.position": (np.zeros(3), lambda a: TagLandmark(1, a, 0.0, 2).position),
}


class TestValueTypes:
    @pytest.mark.parametrize("name", HELD_ARRAYS)
    def test_holds_read_only_copy(self, name):
        initial, build = HELD_ARRAYS[name]
        a = initial.copy()
        held = build(a)
        assert a.flags.writeable and not held.flags.writeable
        a[-1] += 1.0  # the caller's array stays the caller's
        assert np.array_equal(held, initial)

    @pytest.mark.parametrize("build", [
        lambda: RigidTransform(np.full((3, 3), np.nan), np.zeros(3)),
        lambda: TagLandmark(1, np.array([0.0, np.nan, 0.0]), 0.0, 2),
        lambda: TagLandmark(1, np.zeros(3), np.nan, 2),
        lambda: Trajectory(np.array([np.nan]), np.zeros((1, 3)), np.zeros((1, 3))),
        lambda: Trajectory(np.array([0.0, np.inf]), np.zeros((2, 3)), np.zeros((2, 3))),
        lambda: aerial_camera(f=np.inf),
        lambda: aerial_camera(pixel_pitch=np.inf),
    ], ids=["rotation-nan", "position-nan", "rms-nan", "timestamp-nan", "timestamp-inf",
            "focal-length-inf", "pixel-pitch-inf"])
    def test_rejects_non_finite(self, build):
        with pytest.raises(ValueError):
            build()

    def test_shape_message_names_the_array(self):
        with pytest.raises(ValueError, match=r"rotation must have shape \(3, 3\), got \(3,\)"):
            RigidTransform(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match=r"t must have shape \(2, 3\), got \(3, 3\)"):
            Trajectory(np.arange(2.0), np.zeros((3, 3)), np.zeros((2, 3)))


class TestChecked:
    @pytest.mark.parametrize("value, shape, message", [
        ([1.0, 2.0], (3,), r"^v must have shape \(3,\), got \(2,\)$"),
        ([[1.0, 2.0, 3.0]], (3,), r"^v must have shape \(3,\), got \(1, 3\)$"),
        (1.0, (3,), r"^v must have shape \(3,\), got \(\)$"),
        (np.zeros((2, 3)), (None, 2), r"^v must have shape \(None, 2\), got \(2, 3\)$"),
        (np.zeros((2, 3, 1)), (None, 3), r"^v must have shape \(None, 3\), got \(2, 3, 1\)$"),
        ([1.0, np.nan, 3.0], (3,), r"^v must be finite$"),
        ([np.inf, 2.0, 3.0], (3,), r"^v must be finite$"),
        ([1.0, 2.0, -np.inf], (3,), r"^v must be finite$"),
        ([[0.0, 1.0], [np.nan, 2.0]], (None, 2), r"^v must be finite$"),
    ], ids=["wrong-length", "wrong-rank", "scalar", "none-axis-length", "none-axis-rank",
            "nan", "inf", "minus-inf", "none-axis-nan"])
    def test_rejects(self, value, shape, message):
        with pytest.raises(ValueError, match=message):
            _checked(value, shape, "v")

    @pytest.mark.parametrize("value, shape", [
        ([1, 2, 3], (3,)),
        (np.zeros((0, 3)), (None, 3)),
        (np.arange(12.0).reshape(4, 3), (None, 3)),
        (np.arange(12.0).reshape(3, 4).T, (4, None)),
        (np.arange(5), (None,)),
    ], ids=["ints", "empty-none-axis", "none-axis", "fortran-order", "none-1d"])
    def test_returns_read_only_c_ordered_float_copy(self, value, shape):
        a = _checked(value, shape, "v")
        assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable
        assert np.array_equal(a, value)
        assert not np.shares_memory(a, value)


class TestGroupSums:
    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_each_group_adds_its_rows_in_row_order(self, k):
        # unsorted groups, two of them (5 and 7) with no rows, and magnitudes
        # from 1e-6 to 1e6, so that any other summation order changes bits
        rng = np.random.default_rng(k)
        n = 8
        group = rng.choice([0, 1, 2, 3, 4, 6], 200)
        values = rng.standard_normal((200, k)) * 10.0 ** rng.uniform(-6, 6, (200, k))
        expected = np.zeros((n, k))
        for g in range(n):
            acc = np.zeros(k)
            for row in values[group == g]:
                acc = acc + row
            expected[g] = acc
        sums = _group_sums(group, values, n)
        assert sums.shape == (n, k)
        assert np.array_equal(sums, expected)
        assert not sums[[5, 7]].any()

    @pytest.mark.parametrize("layout", ["fortran", "column-sliced"])
    def test_strided_values_sum_as_in_row_order(self, layout):
        # each column is read through its strides, in row order
        rng = np.random.default_rng(len(layout))
        group = rng.choice([0, 2, 3], 150)
        wide = rng.standard_normal((150, 7)) * 10.0 ** rng.uniform(-6, 6, (150, 7))
        values = np.asfortranarray(wide[:, :4]) if layout == "fortran" else wide[:, 1:6:2]
        expected = np.zeros((5, values.shape[1]))
        for row, g in zip(values, group):
            expected[g] = expected[g] + row
        assert np.array_equal(_group_sums(group, values, 5), expected)

    def test_no_columns(self):
        sums = _group_sums(np.array([0, 2, 1]), np.zeros((3, 0)), 4)
        assert sums.shape == (4, 0)

    def test_no_rows(self):
        assert np.array_equal(_group_sums(np.zeros(0, dtype=int), np.zeros((0, 3)), 2),
                              np.zeros((2, 3)))
