import math

import numpy as np
import pytest

from tagbridge.errors import DegenerateGeometry, InsufficientObservations, MissingPose
from tagbridge.geometry import (
    CameraIntrinsics,
    Pose,
    RigidTransform,
    apply_transform,
    pixels_to_directions,
    project_points,
    rotation_from_angles,
)
from tagbridge.synth import default_tag_layout
from tagbridge.triangulate import TagObservation, _solve_groups, triangulate_tags

from conftest import observe_tags, strip_poses


def ray_towards(origin, target):
    origin = np.asarray(origin, dtype=float)
    d = np.asarray(target, dtype=float) - origin
    return origin, d / np.linalg.norm(d)


def rays(*pairs):
    """(origins, dirs) arrays from (origin, direction) pairs."""
    return np.array([o for o, _ in pairs]), np.array([d for _, d in pairs])


def solve_one_group(origins, dirs):
    """(position, rms) of one bundle of rays, solved as the only group.

    Raises the group's error (InsufficientObservations, DegenerateGeometry).
    """
    points, rms, _, errors = _solve_groups(np.zeros(len(origins), dtype=np.intp), [None],
                                           origins, dirs)
    if errors:
        raise errors[0]
    return points[0], rms[0]


def oracle_lstsq_triangulation(origins, dirs):
    """Independent formulation: stack (I - d d^T) rows, solve by QR.

    Takes (n, 3) origins and dirs, or (..., n, 3) stacks of ray sets, each
    solved by its own QR factorization.
    """
    origins = np.asarray(origins, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    rows = np.eye(3) - dirs[..., :, None] * dirs[..., None, :]
    A = rows.reshape(*rows.shape[:-3], -1, 3)
    b = (rows @ origins[..., None]).reshape(*rows.shape[:-3], -1, 1)
    q, r = np.linalg.qr(A)
    return np.linalg.solve(r, np.swapaxes(q, -1, -2) @ b)[..., 0]


class TestTriangulatePoint:
    def test_exact_intersection(self):
        point, rms = solve_one_group(*rays(ray_towards((-5, 0, 100), (0, 0, 0)),
                                             ray_towards((5, 0, 100), (0, 0, 0))))
        assert np.linalg.norm(point) < 1e-9
        assert rms < 1e-12

    def test_single_ray_raises(self):
        with pytest.raises(InsufficientObservations):
            solve_one_group(*rays(ray_towards((0, 0, 100), (0, 0, 0))))

    def test_parallel_bundle_raises(self):
        d = np.array([0.0, 0.0, -1.0])
        with pytest.raises(DegenerateGeometry):
            solve_one_group(*rays(*[(np.array([float(i), 0.0, 100.0]), d) for i in range(4)]))

    def test_antiparallel_is_degenerate_too(self):
        with pytest.raises(DegenerateGeometry):
            solve_one_group(*rays(
                (np.array([0.0, 0.0, 100.0]), np.array([0.0, 0.0, -1.0])),
                (np.array([1.0, 0.0, -100.0]), np.array([0.0, 0.0, 1.0])),
            ))

    def test_near_antiparallel_pair_fails_the_pair_test(self):
        # 0.03 deg from antiparallel: the normal matrix is still well
        # conditioned (about 1.5e7), so only the |dot| pair test rejects it
        tilt = math.radians(0.03)
        with pytest.raises(DegenerateGeometry, match="all ray pairs within"):
            solve_one_group(*rays(
                (np.array([0.0, 0.0, 100.0]), np.array([0.0, 0.0, -1.0])),
                (np.array([1.0, 0.0, -100.0]), np.array([math.sin(tilt), 0.0, math.cos(tilt)])),
            ))

    def test_matches_lstsq_oracle_with_noise(self):
        rng = np.random.default_rng(42)
        target = np.array([1.0, -2.0, 3.0])
        origins = rng.uniform(-50, 50, (6, 3)) + np.array([0, 0, 100.0])
        dirs = np.array([t / np.linalg.norm(t) for t in (target - origins)])
        dirs += rng.normal(0, 1e-4, dirs.shape)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        point, _ = solve_one_group(origins, dirs)
        oracle = oracle_lstsq_triangulation(origins, dirs)
        assert np.linalg.norm(point - oracle) < 1e-9

    def test_noisy_error_within_monte_carlo_envelope(self):
        # 6 cameras on a flight line at 100 m, pixel sigma 0.5 px
        cam = CameraIntrinsics(f=50.0, pixel_pitch=0.0074, x0=2432.0, y0=1616.0,
                               width=4864, height=3232)
        poses = list(strip_poses(6, altitude=100.0, spacing=10.0).values())
        target = np.array([1.0, 3.0, 0.0])
        sigma = 0.5
        pixels = np.array([project_points(cam, pose, target[None, :])[0][0] for pose in poses])
        origins = np.array([pose.t for pose in poses])

        def directions(noisy):
            # (draws, poses, 2) pixels -> (draws, poses, 3) directions, one call per pose
            return np.stack([pixels_to_directions(cam, pose.rotation(), noisy[:, k])
                             for k, pose in enumerate(poses)], axis=1)

        # one draw holds every pose's noise, in the order of the per-pose draws
        rng = np.random.default_rng(1234)
        noisy = pixels + rng.normal(0, sigma, (10_000, len(poses), 2))
        solutions = oracle_lstsq_triangulation(np.broadcast_to(origins, noisy.shape[:2] + (3,)),
                                               directions(noisy))
        mc_errors = np.linalg.norm(solutions - target, axis=1)
        p99 = np.quantile(mc_errors, 0.99)

        rng2 = np.random.default_rng(999)
        noisy = pixels + rng2.normal(0, sigma, (1, len(poses), 2))
        point, _ = solve_one_group(origins, directions(noisy)[0])
        assert np.linalg.norm(point - target) < p99


class TestTriangulateTags:
    def test_seven_tags_exact(self, aerial_cam):
        tags = default_tag_layout()
        poses = strip_poses(5, altitude=100.0, spacing=10.0)
        obs = observe_tags(tags, poses, aerial_cam)
        result = triangulate_tags(obs, poses, aerial_cam)
        assert not result.failures
        assert len(result.landmarks) == 7
        for lm in result.landmarks:
            assert np.linalg.norm(lm.position - tags[lm.tag_id]) < 1e-6
            assert lm.rms_residual < 1e-9
            assert lm.n_rays == 5

    def test_generator_observations_triangulate_as_list(self, aerial_cam):
        poses = strip_poses(5)
        obs = observe_tags(default_tag_layout(), poses, aerial_cam, sigma=0.5,
                           rng=np.random.default_rng(8))
        listed = triangulate_tags(obs, poses, aerial_cam)
        generated = triangulate_tags((o for o in obs), poses, aerial_cam)
        assert len(generated.landmarks) == len(listed.landmarks) == 7
        for got, want in zip(generated.landmarks, listed.landmarks):
            assert (got.tag_id, got.n_rays, got.rms_residual) == (want.tag_id, want.n_rays,
                                                                  want.rms_residual)
            assert np.array_equal(got.position, want.position)

    def test_tag_with_single_view_reported(self, aerial_cam):
        tags = default_tag_layout()
        poses = strip_poses(5)
        obs = observe_tags(tags, poses, aerial_cam)
        obs = [o for o in obs if not (o.tag_id == 3 and o.image_id != "img_0000")]
        result = triangulate_tags(obs, poses, aerial_cam)
        assert set(result.failures) == {3}
        assert isinstance(result.failures[3], InsufficientObservations)
        assert {lm.tag_id for lm in result.landmarks} == {1, 2, 4, 5, 6, 7}

    def test_empty_observations(self, aerial_cam):
        result = triangulate_tags([], strip_poses(3), aerial_cam)
        assert result.landmarks == []
        assert result.failures == {}

    def test_missing_pose_raises(self, aerial_cam):
        obs = [TagObservation(image_id="nope", tag_id=1, pixel=(100.0, 100.0))]
        with pytest.raises(MissingPose):
            triangulate_tags(obs, strip_poses(2), aerial_cam)

    def test_invariant_under_common_rigid_motion(self, aerial_cam):
        rng = np.random.default_rng(3)
        tags = default_tag_layout()
        poses = strip_poses(5)
        obs = observe_tags(tags, poses, aerial_cam)
        base = triangulate_tags(obs, poses, aerial_cam)

        T = RigidTransform(rotation_from_angles((0.2, -0.1, 0.7)), np.array([40.0, -25.0, 5.0]))
        moved = {}
        for image_id, pose in poses.items():
            moved[image_id] = Pose(
                t=apply_transform(T, pose.t),
                r=np.array(_compose_angles(T, pose)),
            )
        shifted = triangulate_tags(obs, moved, aerial_cam)
        for lm0, lm1 in zip(base.landmarks, shifted.landmarks):
            assert np.linalg.norm(apply_transform(T, lm0.position) - lm1.position) < 1e-9

    def test_outlier_observation_removed(self, aerial_cam):
        # a lone gross outlier only exceeds 3x the bundle RMS for larger bundles
        tags = {1: np.array([0.0, 0.0, 0.0])}
        poses = strip_poses(12, altitude=100.0, spacing=5.0)
        rng = np.random.default_rng(10)
        obs = observe_tags(tags, poses, aerial_cam, sigma=0.3, rng=rng)
        bad = obs[2]
        obs[2] = TagObservation(image_id=bad.image_id, tag_id=bad.tag_id,
                                pixel=bad.pixel + np.array([400.0, 0.0]))
        result = triangulate_tags(obs, poses, aerial_cam)
        lm = {lm.tag_id: lm for lm in result.landmarks}[1]
        assert lm.n_rays == 11
        assert np.linalg.norm(lm.position - tags[1]) < 0.05


def mixed_batch(cam):
    """One batch holding every kind of tag, plus the rays the oracle should see.

    Tags 1 and 2 are clean; tag 3 is seen once; tag 4 only by two cameras
    45 mm apart; tag 5 has one gross outlier among 12 views; tag 6 is seen by
    ten cameras 9 mm apart plus one distant view with a gross error, so the
    outlier re-solve keeps only the ten close rays. From 100 m, the close
    rays of tags 4 and 6 lie within MIN_PAIR_ANGLE_DEG of each other, while
    their normal matrices stay below MAX_CONDITION: only the parallel test
    rejects them. Returns (observations, poses, per-tag oracle rays).
    """
    poses = strip_poses(12, altitude=100.0, spacing=5.0)
    nadir = np.array([math.pi, 0.0, 0.0])
    for i in range(10):
        poses[f"twin_{i}"] = Pose(t=np.array([-20.0 + 9e-3 * i, 30.0, 100.0]), r=nadir)
    strip = {k: v for k, v in poses.items() if k.startswith("img_")}
    twins = {k: v for k, v in poses.items() if k.startswith("twin_")}
    rng = np.random.default_rng(21)
    tags = {1: np.array([2.0, -3.0, 0.1]), 2: np.array([-6.0, 4.0, 0.3])}
    obs = observe_tags(tags, strip, cam, sigma=0.3, rng=rng)
    obs += observe_tags({3: np.array([1.0, 1.0, 0.0])}, {"img_0004": strip["img_0004"]}, cam)
    obs += observe_tags({4: np.array([-15.0, 20.0, 0.0])},
                        {k: twins[k] for k in ("twin_0", "twin_5")}, cam)
    obs5 = observe_tags({5: np.array([0.0, 0.0, 0.0])}, strip, cam, sigma=0.3, rng=rng)
    bad = obs5[2]
    obs5[2] = TagObservation(image_id=bad.image_id, tag_id=5, pixel=bad.pixel + (400.0, 0.0))
    obs6 = observe_tags({6: np.array([-10.0, 15.0, 0.0])}, twins, cam)
    far = observe_tags({6: np.array([-10.0, 15.0, 0.0])}, {"img_0000": strip["img_0000"]}, cam)[0]
    obs6.append(TagObservation(image_id=far.image_id, tag_id=6, pixel=far.pixel + (0.0, 300.0)))
    obs += obs5 + obs6

    def oracle_rays(group):
        pose_of = [poses[o.image_id] for o in group]
        dirs = np.array([pixels_to_directions(cam, p.rotation(), o.pixel[None, :])[0]
                         for p, o in zip(pose_of, group)])
        return np.array([p.t for p in pose_of]), dirs

    oracle = {tag: oracle_rays([o for o in obs if o.tag_id == tag]) for tag in (1, 2)}
    oracle[5] = oracle_rays([o for i, o in enumerate(obs5) if i != 2])
    return obs, poses, oracle


class TestBatchedTriangulation:
    def test_mixed_batch_matches_each_tag_alone(self, aerial_cam):
        obs, poses, oracle = mixed_batch(aerial_cam)
        batch = triangulate_tags(obs, poses, aerial_cam)
        assert {t: type(e) for t, e in batch.failures.items()} == {
            3: InsufficientObservations, 4: DegenerateGeometry, 6: DegenerateGeometry}
        for tag in (4, 6):
            assert str(batch.failures[tag]).startswith("all ray pairs within")
        assert [lm.tag_id for lm in batch.landmarks] == [1, 2, 5]
        by_tag = {lm.tag_id: lm for lm in batch.landmarks}
        assert by_tag[5].n_rays == 11
        for tag in range(1, 7):
            alone = triangulate_tags([o for o in obs if o.tag_id == tag], poses, aerial_cam)
            assert ({t: (type(e), str(e)) for t, e in alone.failures.items()}
                    == {t: (type(e), str(e)) for t, e in batch.failures.items() if t == tag})
            assert len(alone.landmarks) == (tag in oracle)
            for lm in alone.landmarks:
                mixed = by_tag[tag]
                assert mixed.n_rays == lm.n_rays == len(oracle[tag][0])
                expected = oracle_lstsq_triangulation(*oracle[tag])
                assert np.linalg.norm(mixed.position - expected) < 1e-9
                assert np.linalg.norm(lm.position - expected) < 1e-9
                # each tag's sums and solve are its own: the batch changes no bit
                assert np.array_equal(mixed.position, lm.position)
                assert mixed.rms_residual == lm.rms_residual

    def test_outlier_resolve_turning_degenerate_is_reported(self, aerial_cam, caplog):
        obs, poses, _ = mixed_batch(aerial_cam)
        tag6 = [o for o in obs if o.tag_id == 6]
        with caplog.at_level("INFO", logger="tagbridge.triangulate"):
            result = triangulate_tags(tag6, poses, aerial_cam)
        # the first pass solves all 11 rays and drops the distant one; the
        # re-solve over the ten kept rays is the degenerate one
        assert any("tag 6: dropping 1 outlier" in r.getMessage() for r in caplog.records)
        assert str(result.failures[6]).startswith("all ray pairs within")
        assert result.landmarks == []

def _compose_angles(T, pose):
    from tagbridge.geometry import angles_from_rotation

    return angles_from_rotation(T.rotation @ pose.rotation())
