import math

import numpy as np
import pytest

from tagbridge.errors import DegenerateGeometry, ReflectionRequired, TooFewCorrespondences
from tagbridge.geometry import (
    RigidTransform,
    angles_from_rotation,
    apply_transform,
    rotation_from_angles,
)
from tagbridge.register import (
    LocalTagSighting,
    Trajectory,
    apply_to_trajectory,
    collect_correspondences,
    estimate_rigid_transform,
)
from tagbridge.synth import default_tag_layout
from tagbridge.triangulate import TagLandmark

from conftest import WORLD_MOVE, rotation_angle


def landmark(tag_id, pos):
    return TagLandmark(tag_id=tag_id, position=np.asarray(pos, float),
                       rms_residual=0.0, n_rays=2)


def random_transform(rng):
    angles = rng.uniform(-math.pi / 2 + 0.1, math.pi / 2 - 0.1, 3)
    return RigidTransform(rotation_from_angles(angles), rng.uniform(-20, 20, 3))


def walk_trajectory(n=20, speed=1.4, dt=0.5):
    i = np.arange(n)
    t = np.stack([speed * dt * i, 0.1 * i, np.full(n, 1.7)], axis=1)
    r = np.stack([np.full(n, -math.pi / 2), np.zeros(n), 0.02 * i], axis=1)
    return Trajectory(timestamps=i * dt, t=t, r=r)


class TestCollectCorrespondences:
    def test_three_distinct_tags(self):
        sightings = [LocalTagSighting(i, np.array([float(i), 0.0, 0.0])) for i in (1, 2, 3)]
        lms = [landmark(i, [0, 0, i]) for i in (1, 2, 3)]
        corr = collect_correspondences(sightings, lms)
        assert len(corr.tag_ids) == 3
        assert corr.unmatched == []

    def test_repeated_sightings_average(self):
        sightings = [
            LocalTagSighting(5, np.array([1.0, 0.0, 0.0])),
            LocalTagSighting(5, np.array([1.2, 0.0, 0.0])),
        ]
        corr = collect_correspondences(sightings, [landmark(5, [0, 0, 0])])
        assert np.allclose(corr.local[0], (1.1, 0.0, 0.0))

    def test_unknown_tag_reported(self):
        sightings = [LocalTagSighting(99, np.zeros(3))]
        corr = collect_correspondences(sightings, [landmark(1, [1, 1, 1])])
        assert len(corr.tag_ids) == 0
        assert corr.unmatched == [99]


class TestEstimateRigidTransform:
    def test_identity_when_sets_equal(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, (5, 3))
        T, res = estimate_rigid_transform(pts, pts)
        assert np.allclose(T.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(T.translation, 0.0, atol=1e-12)
        assert np.max(res) < 1e-12

    def test_recovers_known_transform(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            T_true = random_transform(rng)
            local = rng.uniform(-10, 10, (5, 3))
            world = apply_transform(T_true, local)
            T, res = estimate_rigid_transform(local, world)
            assert rotation_angle(T.rotation.T @ T_true.rotation) < 1e-9
            assert np.linalg.norm(T.translation - T_true.translation) < 1e-9
            assert np.max(res) < 1e-9

    def test_too_few_pairs(self):
        with pytest.raises(TooFewCorrespondences):
            estimate_rigid_transform(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="local and world must have matching shapes"):
            estimate_rigid_transform(np.zeros((4, 3)), np.zeros((5, 3)))

    @pytest.mark.parametrize("side, bad", [("local", np.nan), ("world", np.inf)])
    def test_non_finite_pair_rejected(self, side, bad):
        # not numpy's "SVD did not converge" from inside the fit
        local = np.random.default_rng(6).uniform(-10, 10, (5, 3))
        pairs = {"local": local, "world": local + 1.0}
        pairs[side][2, 1] = bad
        with pytest.raises(ValueError, match=f"^{side} must be finite$"):
            estimate_rigid_transform(pairs["local"], pairs["world"])

    def test_collinear_points_degenerate(self):
        local = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        with pytest.raises(DegenerateGeometry):
            estimate_rigid_transform(local, local)

    def test_reflected_data_raises(self):
        rng = np.random.default_rng(3)
        local = rng.uniform(-10, 10, (6, 3))
        world = local * np.array([1.0, 1.0, -1.0])  # mirrored in z
        with pytest.raises(ReflectionRequired):
            estimate_rigid_transform(local, world)

    def test_planar_sets_do_not_false_trigger_reflection(self):
        # tags on the ground are coplanar; det sign of the svd is then
        # noise-driven and must be corrected silently
        rng = np.random.default_rng(4)
        for seed in range(20):
            T_true = random_transform(np.random.default_rng(seed))
            local = rng.uniform(-10, 10, (5, 3))
            local[:, 2] = 0.0
            world = apply_transform(T_true, local) + rng.normal(0, 0.01, (5, 3))
            T, res = estimate_rigid_transform(local, world)
            assert rotation_angle(T.rotation.T @ T_true.rotation) < 0.02

    @pytest.mark.parametrize("seed", [17, 19, 22, 24, 42])
    def test_nearly_flat_noisy_tags_register(self, seed):
        # the default layout's z spread is 0.3 m; with 0.1 m of noise on both
        # sides these sets flip the SVD sign (S2/S0 ~ 1e-5), yet the proper
        # rotation fits about as well as the reflection
        tags = default_tag_layout()
        truth = np.array([tags[k] for k in sorted(tags)])
        rng = np.random.default_rng(seed)
        local = truth + rng.normal(0, 0.1, truth.shape)
        world = truth + rng.normal(0, 0.1, truth.shape)
        T, res = estimate_rigid_transform(local, world)
        assert rotation_angle(T.rotation) < 0.02
        assert np.sqrt(np.mean(res ** 2)) < 0.3

    def test_order_invariant(self):
        rng = np.random.default_rng(5)
        T_true = random_transform(rng)
        local = rng.uniform(-10, 10, (7, 3))
        world = apply_transform(T_true, local) + rng.normal(0, 0.02, (7, 3))
        T1, _ = estimate_rigid_transform(local, world)
        perm = rng.permutation(7)
        T2, _ = estimate_rigid_transform(local[perm], world[perm])
        assert np.allclose(T1.rotation, T2.rotation, atol=1e-12)
        assert np.allclose(T1.translation, T2.translation, atol=1e-12)

    @pytest.mark.parametrize("plate", [False, True], ids=["noisy", "moved-plate"])
    def test_equivariant_under_world_move(self, plate):
        # the world side moved by one rigid transform M gives M composed with
        # the unmoved answer, and the same residuals, also when a pair is
        # dropped as an outlier. Over 50 seeds the worst differences were
        # 5.2e-15 (rotation entries), 2.8e-14 m (translation) and 3.4e-14 m
        # (residuals)
        rng = np.random.default_rng(8)
        local = rng.uniform(-10, 10, (7, 3))
        world = apply_transform(random_transform(rng), local) + rng.normal(0, 0.02, (7, 3))
        if plate:
            world[3] += np.array([2.0, -1.5, 0.8])
        T, res = estimate_rigid_transform(local, world)
        moved, moved_res = estimate_rigid_transform(local, apply_transform(WORLD_MOVE, world))
        M = WORLD_MOVE
        assert np.max(np.abs(moved.rotation - M.rotation @ T.rotation)) < 1e-13
        assert np.max(np.abs(moved.translation - apply_transform(M, T.translation))) < 1e-12
        assert np.max(np.abs(moved_res - res)) < 1e-12
        assert (res[3] > 1.0) == plate

    def test_outlier_pair_dropped(self):
        rng = np.random.default_rng(6)
        T_true = random_transform(rng)
        local = rng.uniform(-10, 10, (6, 3))
        world = apply_transform(T_true, local)
        world[3] += np.array([2.0, -1.5, 0.8])  # moved plate
        T, res = estimate_rigid_transform(local, world)
        assert rotation_angle(T.rotation.T @ T_true.rotation) < 1e-9
        assert np.linalg.norm(T.translation - T_true.translation) < 1e-9
        assert res[3] > 1.0

    def test_noise_monotonicity(self):
        # RMS residual grows (statistically) with sighting noise
        rng = np.random.default_rng(7)
        T_true = random_transform(rng)
        local = rng.uniform(-10, 10, (8, 3))
        world = apply_transform(T_true, local)
        levels = [0.0, 0.02, 0.1, 0.5]
        mean_rms = []
        for sigma in levels:
            trials = []
            for _ in range(100):
                noisy = world + rng.normal(0, sigma, world.shape) if sigma else world
                _, res = estimate_rigid_transform(local, noisy)
                trials.append(np.sqrt(np.mean(res ** 2)))
            mean_rms.append(np.mean(trials))
        assert all(a <= b + 1e-12 for a, b in zip(mean_rms, mean_rms[1:]))


class TestApplyToTrajectory:
    def test_identity(self):
        traj = walk_trajectory()
        out = apply_to_trajectory(RigidTransform(np.eye(3), np.zeros(3)), traj)
        for a, b in zip(traj, out):
            assert np.allclose(a.t, b.t, atol=1e-12)
            assert np.allclose(a.rotation(), b.rotation(), atol=1e-12)

    def test_pure_translation_keeps_orientations(self):
        traj = walk_trajectory()
        T = RigidTransform(np.eye(3), np.array([5.0, -2.0, 1.0]))
        out = apply_to_trajectory(T, traj)
        for a, b in zip(traj, out):
            assert np.allclose(b.t - a.t, (5.0, -2.0, 1.0), atol=1e-12)
            assert np.allclose(a.r, b.r, atol=1e-12)

    def test_preserves_relative_geometry(self):
        rng = np.random.default_rng(8)
        traj = walk_trajectory(30)
        T = random_transform(rng)
        out = apply_to_trajectory(T, traj)
        p0, p1 = traj.positions(), out.positions()
        d0 = np.linalg.norm(np.diff(p0, axis=0), axis=1)
        d1 = np.linalg.norm(np.diff(p1, axis=0), axis=1)
        assert np.max(np.abs(d0 - d1)) < 1e-12 * max(1.0, d0.max())
        # relative rotations unchanged
        for i in range(len(traj) - 1):
            rel0 = traj[i].rotation().T @ traj[i + 1].rotation()
            rel1 = out[i].rotation().T @ out[i + 1].rotation()
            assert np.max(np.abs(rel0 - rel1)) < 1e-12

    def test_matches_per_pose_loop(self):
        rng = np.random.default_rng(9)
        n = 200
        traj = Trajectory(timestamps=np.arange(n) * 0.1, t=rng.uniform(-50, 50, (n, 3)),
                          r=rng.uniform((-math.pi, -1.5, -math.pi), (math.pi, 1.5, math.pi), (n, 3)))
        T = random_transform(rng)
        out = apply_to_trajectory(T, traj)
        for i, pose in enumerate(traj):
            t = T.rotation @ pose.t + T.translation
            r = angles_from_rotation(T.rotation @ pose.rotation())
            assert np.max(np.abs(out.t[i] - t)) < 1e-12 * max(1.0, np.abs(t).max())
            assert np.array_equal(out.r[i], r)

    def test_timestamps_unchanged(self):
        traj = walk_trajectory()
        out = apply_to_trajectory(RigidTransform(np.eye(3), np.zeros(3)), traj)
        assert np.array_equal(traj.timestamps, out.timestamps)


class TestTrajectoryValidation:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError, match="^timestamps must be strictly increasing$"):
            Trajectory(timestamps=np.array([0.0, 0.0]), t=np.zeros((2, 3)), r=np.zeros((2, 3)))

    def test_one_row_per_timestamp_required(self):
        with pytest.raises(ValueError, match=r"^t must have shape \(2, 3\), got \(3, 3\)$"):
            Trajectory(timestamps=np.array([0.0, 1.0]), t=np.zeros((3, 3)), r=np.zeros((2, 3)))

    def test_columns_read_only_and_poses_built_on_read(self):
        traj = walk_trajectory(5)
        for column in (traj.timestamps, traj.t, traj.r):
            assert not column.flags.writeable
        assert len(traj) == 5
        assert np.array_equal(traj[-1].t, traj.t[4])
        assert np.array_equal(traj[3].r, traj.r[3])
        assert traj.poses is traj
        assert traj.positions() is traj.t
