import math

import numpy as np
import pytest

from tagbridge import bundle
from tagbridge.bundle import (
    LAMBDA_INIT,
    LAMBDA_MAX,
    STOP_RULES,
    BundleProblem,
    _NormalEquations,
    _Packer,
    _rms,
    _times_block_diag,
    solve,
)
from tagbridge.errors import GaugeNotFixed, SingularNormalEquations, Underconstrained
from tagbridge.geometry import (
    Pose,
    RigidTransform,
    angles_from_rotation,
    apply_transform,
    project_points,
    rotation_from_angles,
)

from conftest import WORLD_MOVE, moved_pose, strip_poses
from oracles import ReferenceNormalEquations, numeric_jacobian, reference_linearize


def rotation_angle(R):
    vec = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return math.atan2(np.linalg.norm(vec), (np.trace(R) - 1.0) / 2.0)


def synthetic_block(cam, n_cams=6, n_points=20, seed=0, sigma=0.0):
    rng = np.random.default_rng(seed)
    poses = strip_poses(n_cams, altitude=100.0, spacing=5.0)
    points = {}
    for i in range(n_points):
        points[i] = np.array([rng.uniform(-15, 15), rng.uniform(-12, 12), rng.uniform(-2, 2)])
    measurements = []
    for image_id, pose in poses.items():
        ids = sorted(points)
        px, in_front = project_points(cam, pose, np.array([points[i] for i in ids]))
        for pid, p, ok in zip(ids, px, in_front):
            assert ok and cam.in_bounds(p)
            if sigma > 0:
                p = p + rng.normal(0, sigma, 2)
            measurements.append((image_id, pid, p))
    return poses, points, measurements


def perturb(poses, anchors, dt=0.5, dr_deg=0.5, seed=1):
    rng = np.random.default_rng(seed)
    out = {}
    for image_id, pose in poses.items():
        if image_id in anchors:
            out[image_id] = pose
        else:
            out[image_id] = Pose(
                t=pose.t + rng.uniform(-dt, dt, 3),
                r=pose.r + rng.uniform(-math.radians(dr_deg), math.radians(dr_deg), 3),
            )
    return out


def similarity_fit(src, dst):
    """(s, R, t) minimizing |s R src + t - dst|^2 over (N, 3) rows (Umeyama, 1991)."""
    src_c, dst_c = src - src.mean(axis=0), dst - dst.mean(axis=0)
    U, S, Vt = np.linalg.svd(src_c.T @ dst_c)
    sign = np.array([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = (Vt.T * sign) @ U.T
    s = np.sum(S * sign) / np.sum(src_c * src_c)
    return s, R, dst.mean(axis=0) - s * R @ src.mean(axis=0)


def aligned_pose_errors(est_poses, est_points, true_poses, true_points):
    """Similarity-align the whole reconstruction (centers + points) to truth.

    One anchor leaves the block's scale free, so the gauge transform has 7
    DoF. Camera centers alone sit on the flight line and are collinear, so
    it is estimated over centers and object points together.
    """
    ids = sorted(true_poses)
    pids = sorted(true_points)
    est_all = np.array([est_poses[i].t for i in ids] + [est_points[p] for p in pids])
    true_all = np.array([true_poses[i].t for i in ids] + [true_points[p] for p in pids])
    s, R, t = similarity_fit(est_all, true_all)
    est_c = est_all[:len(ids)]
    true_c = true_all[:len(ids)]
    pos_err = np.linalg.norm(s * est_c @ R.T + t - true_c, axis=1)
    rot_err = []
    for i in ids:
        R_aligned = R @ est_poses[i].rotation()
        rot_err.append(rotation_angle(R_aligned.T @ true_poses[i].rotation()))
    return np.max(pos_err), np.max(rot_err)


def analytic_jacobian(packer, state):
    """Dense J at a state, assembled from the closed-form blocks and their
    column indices.

    Every pose's camera columns are assembled, then the anchored poses'
    (`n_cam` up to `n_cam_cols`) dropped: they are not unknowns.
    """
    res, J_cam, J_point = packer.linearize(packer._predict(state))
    res, J_cam, J_point = res.T, J_cam.transpose(2, 0, 1), J_point.transpose(2, 0, 1)
    m = len(res)
    J = np.zeros((2 * m, packer.n_cam_cols + 3 * len(packer.point_ids)))
    rows = np.arange(2 * m).reshape(m, 2, 1)
    np.add.at(J, (rows, packer.cam_cols[:, None, :]), J_cam)
    point_cols = packer.n_cam_cols + 3 * packer.meas_point[:, None] + np.arange(3)
    np.add.at(J, (rows, point_cols[:, None, :]), J_point)
    return np.delete(J, np.s_[packer.n_cam:packer.n_cam_cols], axis=1), res.ravel()


def residuals(packer, state):
    """(residuals (2M,), behind-camera mask (M,)) of a state, the residuals
    pixel-major: each measurement's two components adjacent."""
    res, behind, _ = packer._predict(state)
    return res.T.ravel(), behind


def residuals_near(packer, state):
    """The residuals of `packer.retract(state, v)` as a function of the step
    v, which `numeric_jacobian` differentiates at v = 0: along exp(h e_j)
    for a rotation column."""
    return lambda v: residuals(packer, packer.retract(state, v))[0]


def moved_start(packer, sigma, seed):
    """The problem's start moved by a normal step of `sigma` in every unknown."""
    step = np.random.default_rng(seed).normal(0, sigma, packer.n_params)
    return packer.retract(packer.start, step)


def moved_problem(problem, T):
    """`problem` with every pose and point moved by the rigid transform T."""
    return BundleProblem(problem.intrinsics,
                         {i: moved_pose(T, p) for i, p in problem.poses.items()},
                         {k: apply_transform(T, v) for k, v in problem.points.items()},
                         problem.measurements, problem.anchors)


def reference_solve(problem, gradient_tol=1e-10, step_tol=1e-12):
    """The LM loop on a central-difference Jacobian and dense normal equations.

    The oracle that `solve`'s early stop is measured against: the same
    damping rules and rotation update, but exhaustive stopping rules. Past
    the cost's rounding it keeps rejecting trials, raising the damping each
    time, until the step norm falls below step_tol * (|x| + step_tol), |x|
    the norm of the free centres and the points. Returns (final cost,
    converged).
    """
    packer = _Packer(problem)
    state = packer.start
    r = residuals(packer, state)[0]
    cost = float(r @ r)
    lam = LAMBDA_INIT
    converged = False
    for _ in range(bundle.MAX_ITERS):
        J = numeric_jacobian(residuals_near(packer, state), np.zeros(packer.n_params))
        g = J.T @ r
        if np.max(np.abs(g)) < gradient_tol:
            converged = True
            break
        A = J.T @ J
        diag = np.maximum(np.diag(A), 1e-12)
        accepted = False
        while lam <= LAMBDA_MAX:
            delta = np.linalg.solve(A + lam * np.diag(diag), -g)
            size = np.hypot(np.linalg.norm(state[0][:packer.n_free]), np.linalg.norm(state[2]))
            if np.linalg.norm(delta) < step_tol * (size + step_tol):
                converged = True
                break
            state_new = packer.retract(state, delta)
            r_new = residuals(packer, state_new)[0]
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                state, r, cost = state_new, r_new, cost_new
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if converged or not accepted:
            break
    return cost, converged


def initial_residuals(problem):
    """(residuals (2M,), behind-camera mask (M,)) at the problem's initial state."""
    packer = _Packer(problem)
    return residuals(packer, packer.start)


class TestResiduals:
    def test_exact_measurements_zero_residual(self, aerial_cam):
        poses, points, meas = synthetic_block(aerial_cam)
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"})
        res, behind = initial_residuals(problem)
        assert _rms(res) < 1e-12
        assert not behind.any()
        assert res.shape == (2 * len(meas),)

    def test_displacement_matches_first_order(self, aerial_cam):
        poses = strip_poses(6, altitude=100.0, spacing=5.0)
        points = {0: np.array([1.0, 2.0, 0.0])}
        meas = []
        for image_id, pose in poses.items():
            px, _ = project_points(aerial_cam, pose, points[0][None, :])
            meas.append((image_id, 0, px[0]))
        delta, depth = 0.02, 100.0
        shifted = {0: points[0] + np.array([delta, 0.0, 0.0])}
        problem = BundleProblem(aerial_cam, poses, shifted, meas, anchors={"img_0000"})
        res, _ = initial_residuals(problem)
        expected = aerial_cam.f * delta / (depth * aerial_cam.pixel_pitch)
        u_residuals = np.abs(res[0::2])
        assert np.allclose(u_residuals, expected, rtol=1e-6)

    def test_empty_measurements(self, aerial_cam):
        poses = strip_poses(2)
        problem = BundleProblem(aerial_cam, poses, {0: np.zeros(3)}, [], anchors={"img_0000"})
        res, _ = initial_residuals(problem)
        assert res.size == 0
        assert _rms(res) == 0.0

    def test_behind_camera_flagged(self, aerial_cam):
        poses = strip_poses(2)
        points = {0: np.array([0.0, 0.0, 300.0])}  # above the cameras
        meas = [("img_0000", 0, np.array([100.0, 100.0])),
                ("img_0001", 0, np.array([100.0, 100.0]))]
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"})
        res, behind = initial_residuals(problem)
        assert behind.all()
        assert np.all(res == 1e6)


class TestState:
    def test_predict_is_pure(self, aerial_cam):
        # a state projects to the same bits whatever the packer projected
        # or retracted before: the packer keeps no state of its own
        poses, points, meas = synthetic_block(aerial_cam, n_cams=4, n_points=8, sigma=0.3, seed=2)
        packer = _Packer(BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"}))
        before = residuals(packer, packer.start)[0]
        moved = moved_start(packer, 1e-2, seed=4)
        residuals(packer, moved)
        residuals(packer, packer.retract(moved, np.full(packer.n_params, 1e-3)))
        assert np.array_equal(residuals(packer, packer.start)[0], before)

    @pytest.mark.parametrize("anchors", ["one", "two", "all"])
    def test_zero_step_keeps_state(self, aerial_cam, anchors):
        packer, state = oracle_block(aerial_cam, anchors, seed=0)
        for got, given in zip(packer.retract(state, np.zeros(packer.n_params)), state):
            assert np.array_equal(got, given)


class TestMalformedInput:
    @pytest.mark.parametrize("change, message", [
        ("image", r"^measurement references unknown image 'img_0099'$"),
        ("point", r"^measurement references unknown point 99$"),
        ("anchor", r"^anchor references unknown image 'img_0099'$"),
    ])
    def test_unknown_id_rejected_on_construction(self, aerial_cam, change, message):
        poses, points, meas = synthetic_block(aerial_cam, n_cams=3, n_points=4)
        anchors = {"img_0000"}
        if change == "image":
            meas.append(("img_0099", 0, meas[0][2]))
        elif change == "point":
            meas.append(("img_0001", 99, meas[0][2]))
        else:
            anchors.add("img_0099")
        with pytest.raises(ValueError, match=message):
            BundleProblem(aerial_cam, poses, points, meas, anchors=anchors)

    @pytest.mark.parametrize("first, message", [
        ("point", r"^measurement references unknown point 98$"),
        ("image", r"^measurement references unknown image 'img_0098'$"),
    ])
    def test_first_measurement_with_an_unknown_id_named(self, aerial_cam, first, message):
        poses, points, meas = synthetic_block(aerial_cam, n_cams=3, n_points=4)
        bad = [("img_0001", 98, meas[0][2]), ("img_0098", 0, meas[0][2]),
               ("img_0099", 99, meas[0][2]), ("img_0002", 97, meas[0][2])]
        if first == "image":
            bad[:2] = bad[1::-1]
        meas[3:3] = bad
        with pytest.raises(ValueError, match=message):
            BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"})

    @pytest.mark.parametrize("pixel", [np.array([10.0, np.nan]), np.array([10.0, 20.0, 1.0])],
                             ids=["nan", "three_values"])
    def test_bad_pixel_named(self, aerial_cam, pixel):
        poses, points, meas = synthetic_block(aerial_cam, n_cams=3, n_points=4)
        meas[5] = (meas[5][0], meas[5][1], pixel)
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"})
        with pytest.raises(ValueError, match=r"^pixel of point 1 in image 'img_0001' must be "
                                             r"a finite \(2,\) vector$"):
            solve(problem)

    @pytest.mark.parametrize("point", [np.array([1.0, np.inf, 0.0]), np.array([1.0, 2.0])],
                             ids=["inf", "two_values"])
    def test_bad_point_named(self, aerial_cam, point):
        poses, points, meas = synthetic_block(aerial_cam, n_cams=3, n_points=4)
        points[2] = point
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"})
        with pytest.raises(ValueError, match=r"^point 2 must be a finite \(3,\) vector$"):
            solve(problem)


class TestSolve:
    def test_already_at_minimum(self, aerial_cam):
        poses, points, meas = synthetic_block(aerial_cam)
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"})
        refined, report = solve(problem)
        assert report.converged
        assert report.iterations <= 2
        assert report.final_rms < 1e-10

    def test_perturbed_poses_recovered(self, aerial_cam):
        # an exact block: the cost falls to the rounding of the residuals
        # themselves, and the solve stops there without a rejected trial
        poses, points, meas = synthetic_block(aerial_cam, n_points=20)
        anchors = {"img_0000"}
        start = perturb(poses, anchors)
        problem = BundleProblem(aerial_cam, start, dict(points), meas, anchors=anchors)
        refined, report = solve(problem)
        assert report.converged
        assert report.stop == "predicted_decrease"
        assert len(report.damping_trace) == len(report.cost_trace)
        assert report.iterations <= 9
        assert report.final_rms < 1e-8
        pos_err, rot_err = aligned_pose_errors(refined.poses, refined.points, poses, points)
        assert pos_err < 1e-6
        assert rot_err < 1e-7

    def test_generator_measurements_solve_as_list(self, aerial_cam):
        poses, points, meas = synthetic_block(aerial_cam, sigma=0.3)
        start = perturb(poses, {"img_0000"})
        results = [solve(BundleProblem(aerial_cam, start, points, given, anchors={"img_0000"}))
                   for given in (meas, (m for m in meas))]
        (listed, list_report), (generated, gen_report) = results
        assert generated.measurements == listed.measurements
        assert gen_report == list_report
        for image_id, pose in listed.poses.items():
            assert np.array_equal(generated.poses[image_id].t, pose.t)
            assert np.array_equal(generated.poses[image_id].r, pose.r)
        assert all(np.array_equal(generated.points[p], listed.points[p]) for p in points)

    def test_gauge_not_fixed(self, aerial_cam):
        poses, points, meas = synthetic_block(aerial_cam)
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors=frozenset())
        with pytest.raises(GaugeNotFixed):
            solve(problem)

    def test_singular_normal_equations(self, aerial_cam, monkeypatch):
        poses, points, meas = synthetic_block(aerial_cam, n_cams=3, n_points=4)
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"})

        def singular(normal, lam):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(_NormalEquations, "step", singular)
        with pytest.raises(SingularNormalEquations, match=r"^Singular matrix$") as info:
            solve(problem)
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_no_acceptable_step(self, aerial_cam, monkeypatch, caplog):
        # every trial is predicted to lower the cost and leaves the state as
        # it was, so each is rejected and the damping rises x10 per trial
        # until it passes LAMBDA_MAX
        poses, points, meas = synthetic_block(aerial_cam, n_cams=3, n_points=4)
        start = perturb(poses, {"img_0000"})
        problem = BundleProblem(aerial_cam, start, points, meas, anchors={"img_0000"})
        monkeypatch.setattr(_NormalEquations, "predicted_decrease",
                            lambda normal, lam, delta: math.inf)
        monkeypatch.setattr(_Packer, "retract", lambda packer, state, step: state)
        with caplog.at_level("WARNING", logger="tagbridge.bundle"):
            _, report = solve(problem)
        assert report.stop == "no_acceptable_step"
        assert report.converged is False
        assert report.iterations == 1
        trace = report.damping_trace
        assert trace[0] == LAMBDA_INIT
        ratios = [b / a for a, b in zip(trace, trace[1:])]
        assert ratios == pytest.approx([10.0] * len(ratios))
        assert trace[-2] <= LAMBDA_MAX < trace[-1]
        assert len(report.cost_trace) == 1
        assert [r.getMessage() for r in caplog.records] == [
            f"LM stopped on no_acceptable_step after 1 iterations (rms {report.final_rms:.3e} px)"]

    def test_underconstrained_point(self, aerial_cam):
        poses, points, meas = synthetic_block(aerial_cam, n_points=3)
        meas = [m for m in meas if not (m[1] == 2 and m[0] != "img_0000")]
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"})
        with pytest.raises(Underconstrained,
                           match=r"^point 2 seen in 1 image\(s\), need at least 2$"):
            solve(problem)

    def test_repeat_in_one_image_counts_once(self, aerial_cam):
        # point 2's two measurements both lie in img_0002: one image, whether
        # or not a third measurement in another image is kept
        poses, points, meas = synthetic_block(aerial_cam, n_points=3)
        twice = next(m for m in meas if m[:2] == ("img_0002", 2))
        other = next(m for m in meas if m[:2] == ("img_0004", 2))
        meas = [m for m in meas if m[1] != 2] + [twice, twice]
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"})
        with pytest.raises(Underconstrained, match=r"^point 2 seen in 1 image\(s\)"):
            solve(problem)
        _, report = solve(BundleProblem(aerial_cam, poses, points, meas + [other],
                                        anchors={"img_0000"}))
        assert report.final_rms < 1e-8

    def test_first_underconstrained_point_named(self, aerial_cam):
        # points 1 and 3 keep one image each; a repeat in the same image
        # does not count as a second one
        poses, points, meas = synthetic_block(aerial_cam, n_points=4)
        meas = [m for m in meas if m[1] in (0, 2) or m[0] == "img_0003"]
        meas.append(("img_0003", 3, meas[-1][2]))
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"})
        with pytest.raises(Underconstrained,
                           match=r"^point 1 seen in 1 image\(s\), need at least 2$"):
            solve(problem)

    def test_block_turned_to_phi_90_solves(self, aerial_cam):
        # Q turns the whole block 90 deg about y, which leaves every pixel as
        # it was and puts every camera within half a degree of phi = 90 deg,
        # the pole of the angle convention. Two anchors that see points fix
        # the datum, so the turned solve must end at Q times the unturned one.
        poses, points, meas = synthetic_block(aerial_cam, n_points=20, sigma=0.5, seed=11)
        anchors = {"img_0000", "img_0005"}
        start = perturb(poses, anchors, dt=0.3, dr_deg=0.3, seed=5)
        Q = RigidTransform(rotation_from_angles((0.0, math.pi / 2, 0.0)), np.zeros(3))
        problem = BundleProblem(aerial_cam, start, points, meas, anchors=anchors)
        turned = moved_problem(problem, Q)
        assert all(abs(p.r[1]) > math.radians(89.5) for p in turned.poses.values())

        ref, ref_report = solve(problem)
        got, report = solve(turned)
        assert report.converged and ref_report.converged
        assert report.final_rms == pytest.approx(ref_report.final_rms, rel=1e-12)
        for p in points:
            assert np.linalg.norm(got.points[p] - apply_transform(Q, ref.points[p])) < 1e-10
        for i in poses:
            assert np.linalg.norm(got.poses[i].t - apply_transform(Q, ref.poses[i].t)) < 1e-10
            R = Q.rotation @ ref.poses[i].rotation()
            assert np.max(np.abs(got.poses[i].rotation() - R)) < 1e-11

    def test_solution_is_stationary(self, aerial_cam):
        # with a datum, the solution is a stationary point of the cost: the
        # gradient J^T r, J by central differences along exp(h e_j) at zero
        # increments, vanishes to a small fraction of |J| |r|; at the start
        # it does not
        poses, points, meas = synthetic_block(aerial_cam, n_points=20, sigma=0.5, seed=3)
        anchors = {"img_0000", "img_0005"}
        start = perturb(poses, anchors, dt=0.3, dr_deg=0.3, seed=5)
        problem = BundleProblem(aerial_cam, start, points, meas, anchors=anchors)
        solved, report = solve(problem)
        assert report.converged

        def gradient_ratio(problem):
            packer = _Packer(problem)
            r = residuals(packer, packer.start)[0]
            J = numeric_jacobian(residuals_near(packer, packer.start), np.zeros(packer.n_params))
            return np.linalg.norm(J.T @ r) / (np.linalg.norm(J) * np.linalg.norm(r))

        assert gradient_ratio(solved) < 1e-9
        assert gradient_ratio(problem) > 1e-3

    def test_cost_monotone_and_final_not_worse(self, aerial_cam):
        poses, points, meas = synthetic_block(aerial_cam, n_points=15, sigma=0.5, seed=4)
        start = perturb(poses, {"img_0000"}, dt=0.3, dr_deg=0.3, seed=5)
        problem = BundleProblem(aerial_cam, start, dict(points), meas, anchors={"img_0000"})
        refined, report = solve(problem)
        assert report.final_rms <= report.initial_rms
        assert all(b <= a + 1e-15 for a, b in zip(report.cost_trace, report.cost_trace[1:]))

    def test_gauge_consistency_same_cost_from_moved_start(self, aerial_cam):
        poses, points, meas = synthetic_block(aerial_cam, n_points=20, sigma=0.3, seed=6)
        anchors = {"img_0000"}
        problem1 = BundleProblem(aerial_cam, dict(poses), dict(points), meas, anchors=anchors)
        _, rep1 = solve(problem1)

        T = RigidTransform(rotation_from_angles((0.002, -0.003, 0.004)),
                           np.array([0.2, -0.1, 0.15]))
        moved_poses = {}
        for image_id, pose in poses.items():
            if image_id in anchors:
                moved_poses[image_id] = pose
            else:
                moved_poses[image_id] = Pose(
                    t=apply_transform(T, pose.t),
                    r=angles_from_rotation(T.rotation @ pose.rotation()),
                )
        moved_points = {k: apply_transform(T, v) for k, v in points.items()}
        problem2 = BundleProblem(aerial_cam, moved_poses, moved_points, meas, anchors=anchors)
        _, rep2 = solve(problem2)

        c1 = rep1.cost_trace[-1]
        c2 = rep2.cost_trace[-1]
        assert abs(c1 - c2) < 1e-10 * max(1.0, c1)

    def test_residual_evals_counts_projections(self, aerial_cam, monkeypatch):
        poses, points, meas = synthetic_block(aerial_cam, n_cams=4, n_points=8, sigma=0.3, seed=2)
        start = perturb(poses, {"img_0000"}, dt=0.3, dr_deg=0.3, seed=5)
        problem = BundleProblem(aerial_cam, start, points, meas, anchors={"img_0000"})
        calls = []
        predict = _Packer._predict

        def counted(packer, state):
            calls.append(state)
            return predict(packer, state)

        monkeypatch.setattr(_Packer, "_predict", counted)
        _, report = solve(problem)
        # the initial evaluation and one per trial, accepted or rejected; each
        # Jacobian is built from its state's evaluation
        assert report.stop == "predicted_decrease"
        assert len(report.damping_trace) > len(report.cost_trace)  # some trials rejected
        assert report.residual_evals == len(report.damping_trace) == len(calls)

    @pytest.mark.parametrize("case", ["noisy", "one_iteration", "exact"])
    def test_no_state_projected_twice(self, aerial_cam, monkeypatch, case):
        sigma = 0.0 if case == "exact" else 0.5
        poses, points, meas = synthetic_block(aerial_cam, n_points=15, sigma=sigma, seed=4)
        if case != "exact":
            poses = perturb(poses, {"img_0000"}, dt=0.3, dr_deg=0.3, seed=5)
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"})
        calls = []
        predict = _Packer._predict

        def counted(packer, state):
            calls.append(state)
            return predict(packer, state)

        monkeypatch.setattr(_Packer, "_predict", counted)
        if case == "one_iteration":
            monkeypatch.setattr(bundle, "MAX_ITERS", 1)
        _, report = solve(problem)
        assert len({b"".join(a.tobytes() for a in state) for state in calls}) == len(calls)
        assert all(map(np.array_equal, calls[0], _Packer(problem).start))
        assert report.residual_evals == len(calls) == len(report.damping_trace)

    @pytest.mark.parametrize("case, stop", [
        ("exact", "predicted_decrease"),
        ("noisy", "predicted_decrease"),
        ("one_iteration", "max_iters"),
        ("all_fixed", "no_free_parameters"),
    ])
    def test_stop_rule_reported(self, aerial_cam, monkeypatch, case, stop):
        sigma = 0.0 if case == "exact" else 0.5
        poses, points, meas = synthetic_block(aerial_cam, n_points=15, sigma=sigma, seed=4)
        if case != "exact":
            poses = perturb(poses, {"img_0000"}, dt=0.3, dr_deg=0.3, seed=5)
        anchors = {"img_0000"}
        if case == "all_fixed":  # every pose anchored, no points
            points, meas, anchors = {}, [], set(poses)
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors=anchors)
        if case == "one_iteration":
            monkeypatch.setattr(bundle, "MAX_ITERS", 1)
        refined, report = solve(problem)
        assert report.stop == stop
        assert report.converged == STOP_RULES[stop]
        assert report.residual_evals == len(report.damping_trace)
        if case == "exact":
            # the first step is predicted to lower the cost by less than its
            # rounding: one Jacobian, no trial, the block returned as it came.
            # A free pose's angles come back through angles_from_rotation, so
            # its rotation matrix is compared, to rounding
            assert report.iterations == 1
            assert len(report.damping_trace) == len(report.cost_trace) == 1
            assert report.residual_evals == 1
            for i in poses:
                assert np.array_equal(refined.poses[i].t, poses[i].t)
                assert np.allclose(refined.poses[i].rotation(), poses[i].rotation(),
                                   rtol=0, atol=1e-15)
            for p in points:
                assert np.array_equal(refined.points[p], points[p])


class TestJacobian:
    def test_matches_independent_step_size(self, aerial_cam):
        poses, points, meas = synthetic_block(aerial_cam, n_cams=3, n_points=5, sigma=0.2, seed=7)
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors={"img_0000"})
        packer = _Packer(problem)
        fun = residuals_near(packer, moved_start(packer, 1e-3, seed=9))
        v = np.zeros(packer.n_params)
        J1 = numeric_jacobian(fun, v, rel_step=1e-7)
        J2 = numeric_jacobian(fun, v, rel_step=1e-5)
        scale = np.maximum(np.abs(J1), np.abs(J2))
        mask = scale > 1e-3  # ignore structurally tiny entries
        rel = np.abs(J1 - J2)[mask] / scale[mask]
        assert np.max(rel) < 1e-4

    @pytest.mark.parametrize("all_anchored", [True, False], ids=["points", "poses+points"])
    def test_analytic_matches_numeric(self, aerial_cam, all_anchored):
        poses, points, meas = synthetic_block(aerial_cam, n_cams=4, n_points=8, sigma=0.3, seed=2)
        # a point above the cameras: behind every one of them
        points[99] = np.array([0.0, 0.0, 300.0])
        meas = meas + [("img_0001", 99, np.array([100.0, 100.0])),
                       ("img_0002", 99, np.array([900.0, 100.0]))]
        anchors = set(poses) if all_anchored else {"img_0000"}
        problem = BundleProblem(aerial_cam, poses, points, meas, anchors=anchors)
        packer = _Packer(problem)
        state = moved_start(packer, 1e-3, seed=3)

        J, r = analytic_jacobian(packer, state)
        # rel_step 1e-5: at 1e-7 the roundoff of ~2000 px residuals reaches
        # ~1e-6 of the smallest columns (point z), at 1e-5 it is ~1e-9
        J_num = numeric_jacobian(residuals_near(packer, state), np.zeros(packer.n_params),
                                 rel_step=1e-5)
        assert J.shape == J_num.shape == (2 * len(meas), packer.n_params)
        behind = residuals(packer, state)[1]
        assert behind.sum() == 2 and behind[-2:].all()
        assert not J[-4:].any() and not J_num[-4:].any()
        for j in range(packer.n_params):  # the behind point's own columns are all zero
            scale = np.max(np.abs(J_num[:, j]))
            assert np.max(np.abs(J[:, j] - J_num[:, j])) <= 1e-6 * scale, j

        # the block normal equations are J^T J and J^T r of the same J
        normal = _NormalEquations(packer, packer._predict(state))
        A = J.T @ J
        nc, n = packer.n_cam, packer.n_free
        tol = 1e-12 * np.max(np.abs(A))
        assert np.allclose(normal.g, J.T @ r, rtol=0, atol=1e-12 * np.max(np.abs(J.T @ r)))
        # no measurement couples two poses: J^T J's pose blocks off the
        # diagonal are zero, and U holds the diagonal ones
        pose_blocks = A[:nc, :nc].reshape(n, 6, n, 6).transpose(0, 2, 1, 3)
        assert not pose_blocks[~np.eye(n, dtype=bool)].any()
        assert normal.U.shape == (n, 6, 6)
        assert np.allclose(normal.U, pose_blocks[np.arange(n), np.arange(n)], rtol=0, atol=tol)
        assert np.allclose(normal.W, A[:nc, nc:], rtol=0, atol=tol)
        n_pts = len(normal.V)
        blocks = A[nc:, nc:].reshape(n_pts, 3, n_pts, 3).transpose(0, 2, 1, 3)
        assert np.allclose(normal.V, blocks[np.arange(n_pts), np.arange(n_pts)], rtol=0, atol=tol)

    @pytest.mark.parametrize("all_anchored", [False, True], ids=["poses+points", "points"])
    @pytest.mark.parametrize("lam", [1e-12, 1e-3, 1e3])
    def test_schur_step_matches_dense_solve(self, aerial_cam, all_anchored, lam):
        poses, points, meas = synthetic_block(aerial_cam, n_cams=6, n_points=20, sigma=0.5,
                                              seed=3)
        # two anchors fix the scale, which one anchor leaves free: at lam
        # 1e-12 J^T J would be singular to rounding
        anchors = set(poses) if all_anchored else {"img_0000", "img_0005"}
        start = perturb(poses, anchors, dt=0.3, dr_deg=0.3, seed=5)
        problem = BundleProblem(aerial_cam, start, points, meas, anchors=anchors)
        packer = _Packer(problem)
        J, r = analytic_jacobian(packer, packer.start)
        A = J.T @ J
        dense = np.linalg.solve(A + lam * np.diag(np.maximum(np.diag(A), 1e-12)), -J.T @ r)
        step = _NormalEquations(packer, packer._predict(packer.start)).step(lam)
        assert np.linalg.norm(step - dense) <= 1e-8 * np.linalg.norm(dense)


def oracle_block(cam, anchors, seed):
    """A packer and a perturbed state on a noisy block with two measurements
    behind their cameras, measurements on every anchored pose and one
    measurement repeated in its image (two terms in one bin)."""
    poses, points, meas = synthetic_block(cam, n_cams=5, n_points=12, sigma=0.3, seed=seed)
    points[99] = np.array([0.0, 0.0, 300.0])  # above the cameras: behind every one of them
    meas = meas + [("img_0000", 99, np.array([100.0, 100.0])),
                   ("img_0003", 99, np.array([900.0, 100.0])), meas[7]]
    anchors = {"all": set(poses), "one": {"img_0000"}, "two": {"img_0000", "img_0003"}}[anchors]
    packer = _Packer(BundleProblem(cam, poses, points, meas, anchors=anchors))
    return packer, moved_start(packer, 1e-2, seed)


class TestComponentMajorBuild:
    """The component-major blocks and bins against the measurement-major
    einsum formulation of `tests/oracles.py`, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("anchors", ["one", "two", "all"])
    def test_linearize_equals_einsum_oracle(self, aerial_cam, anchors, seed):
        packer, state = oracle_block(aerial_cam, anchors, seed)
        res, J_cam, J_point = packer.linearize(packer._predict(state))
        ref_res, ref_cam, ref_point = reference_linearize(packer, state)
        assert J_cam.shape == (2, 6, len(ref_res))
        assert residuals(packer, state)[1][-3:-1].all()  # point 99's two measurements
        assert np.array_equal(res.T, ref_res)
        assert np.array_equal(residuals(packer, state)[0], ref_res.ravel())
        assert np.array_equal(J_cam.transpose(2, 0, 1), ref_cam)
        assert np.array_equal(J_point.transpose(2, 0, 1), ref_point)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("anchors", ["one", "two", "all"])
    def test_normal_equations_equal_einsum_oracle(self, aerial_cam, anchors, seed):
        packer, state = oracle_block(aerial_cam, anchors, seed)
        projected = packer._predict(state)
        normal = _NormalEquations(packer, projected)
        ref = ReferenceNormalEquations(packer, projected)  # it projects the state on its own
        for name in ("U", "V", "W", "g", "D"):
            assert np.array_equal(getattr(normal, name), getattr(ref, name)), name

    def test_solve_equals_solve_on_oracle_normal_equations(self, aerial_cam, monkeypatch):
        poses, points, meas = synthetic_block(aerial_cam, n_points=30, sigma=0.5, seed=8)
        start = perturb(poses, {"img_0000"}, dt=0.3, dr_deg=0.3, seed=5)
        problem = BundleProblem(aerial_cam, start, points, meas, anchors={"img_0000"})
        refined, report = solve(problem)
        monkeypatch.setattr(bundle, "_NormalEquations", ReferenceNormalEquations)
        ref_refined, ref_report = solve(problem)
        assert report.iterations > 2
        assert report.cost_trace == ref_report.cost_trace
        for i in poses:
            assert np.array_equal(refined.poses[i].t, ref_refined.poses[i].t)
            assert np.array_equal(refined.poses[i].r, ref_refined.poses[i].r)
        for p in points:
            assert np.array_equal(refined.points[p], ref_refined.points[p])


class TestNormalEquationsStep:
    @pytest.mark.parametrize("n_cam, n_pts", [(84, 140), (7, 1), (0, 5), (6, 0)])
    def test_block_diag_product_equals_einsum(self, n_cam, n_pts):
        rng = np.random.default_rng(n_cam + 1000 * n_pts)
        for _ in range(5):
            W = rng.normal(size=(n_cam, 3 * n_pts)) * 10.0 ** rng.integers(-6, 7, (1, 3 * n_pts))
            V_inv = np.linalg.inv(rng.normal(size=(n_pts, 3, 3)) + 3 * np.eye(3))
            einsum = np.einsum("cpi,pij->cpj", W.reshape(n_cam, n_pts, 3), V_inv)
            assert np.array_equal(_times_block_diag(W, V_inv), einsum.reshape(W.shape))

    @pytest.mark.parametrize("lam", [1e-12, 1e-3, 1e3])
    def test_predicted_decrease_matches_dense_model(self, aerial_cam, lam):
        poses, points, meas = synthetic_block(aerial_cam, n_cams=6, n_points=20, sigma=0.5,
                                              seed=3)
        start = perturb(poses, {"img_0000", "img_0005"}, dt=0.3, dr_deg=0.3, seed=5)
        problem = BundleProblem(aerial_cam, start, points, meas,
                                anchors={"img_0000", "img_0005"})
        packer = _Packer(problem)
        J, r = analytic_jacobian(packer, packer.start)
        normal = _NormalEquations(packer, packer._predict(packer.start))
        delta = normal.step(lam)
        model = r + J @ delta
        expected = r @ r - model @ model
        assert expected > 0
        assert normal.predicted_decrease(lam, delta) == pytest.approx(expected, rel=1e-8)


class TestEquivariance:
    # Two anchors that see points fix the datum, so moving every pose and
    # point by one rigid transform moves the solution with them. Each solve
    # stops on its predicted decrease, not at one exact point: over seeds
    # 3-12 of this block the worst differences were 1.6e-9 m at the points,
    # 1.0e-8 m at the centres and 1.1e-10 in a rotation entry, with or
    # without relabelling; the bounds are 5 to 9 times that. With one
    # anchor the scale is free, and the two solves part by up to 0.48 m.
    @pytest.mark.parametrize("relabel", [False, True], ids=["moved", "moved-relabelled"])
    def test_solution_moves_with_the_world(self, aerial_cam, relabel):
        poses, points, meas = synthetic_block(aerial_cam, n_points=20, sigma=0.5, seed=3)
        anchors = {"img_0000", "img_0005"}
        start = perturb(poses, anchors, dt=0.3, dr_deg=0.3, seed=5)
        problem = BundleProblem(aerial_cam, start, points, meas, anchors=anchors)
        moved = moved_problem(problem, WORLD_MOVE)
        image, point = {i: i for i in poses}, {p: p for p in points}
        if relabel:
            # ids that sort in another order and shuffled measurements: the
            # bins add in another order, so the bits may differ
            rng = np.random.default_rng(4)
            image = {i: f"cam_{k}" for i, k in zip(sorted(poses), rng.permutation(len(poses)))}
            point = {p: 100 + int(k) for p, k in zip(sorted(points), rng.permutation(len(points)))}
            moved = BundleProblem(aerial_cam, {image[i]: p for i, p in moved.poses.items()},
                                  {point[k]: v for k, v in moved.points.items()},
                                  [(image[i], point[k], px) for i, k, px in
                                   (meas[m] for m in rng.permutation(len(meas)))],
                                  anchors={image[i] for i in anchors})

        ref, ref_report = solve(problem)
        got, report = solve(moved)
        assert ref_report.converged and report.converged
        for k in points:
            want = apply_transform(WORLD_MOVE, ref.points[k])
            assert np.max(np.abs(got.points[point[k]] - want)) < 1e-8
        for i in poses:
            pose = got.poses[image[i]]
            assert np.max(np.abs(pose.t - apply_transform(WORLD_MOVE, ref.poses[i].t))) < 5e-8
            R = WORLD_MOVE.rotation @ ref.poses[i].rotation()
            assert np.max(np.abs(pose.rotation() - R)) < 1e-9


class TestAgainstReference:
    @pytest.mark.parametrize("block", ["monotone", "noise_100", "noise_101", "noise_102"])
    def test_final_cost_matches_central_difference_solver(self, aerial_cam, block):
        if block == "monotone":
            poses, points, meas = synthetic_block(aerial_cam, n_points=15, sigma=0.5, seed=4)
            poses = perturb(poses, {"img_0000"}, dt=0.3, dr_deg=0.3, seed=5)
        else:
            poses, points, meas = synthetic_block(aerial_cam, n_cams=6, n_points=50, sigma=0.5,
                                                  seed=int(block[-3:]))
        problem = BundleProblem(aerial_cam, dict(poses), dict(points), meas,
                                anchors={"img_0000"})
        ref_cost, ref_converged = reference_solve(problem)
        _, report = solve(problem)
        assert ref_converged and report.converged
        assert report.stop == "predicted_decrease"
        assert abs(report.cost_trace[-1] - ref_cost) <= 1e-12 * ref_cost
        # the solve ends before its first trial that would not lower the cost
        assert len(report.damping_trace) == len(report.cost_trace)
        assert all(b <= a for a, b in zip(report.cost_trace, report.cost_trace[1:]))


class TestNoiseFloor:
    def test_rms_matches_dof_prediction(self, aerial_cam):
        sigma = 0.5
        ratios = []
        for trial in range(20):
            poses, points, meas = synthetic_block(
                aerial_cam, n_cams=6, n_points=50, sigma=sigma, seed=100 + trial)
            problem = BundleProblem(aerial_cam, dict(poses), dict(points), meas,
                                    anchors={"img_0000"})
            _, report = solve(problem)
            n_res = 2 * len(meas)
            n_par = 6 * 5 + 3 * 50
            expected = sigma * math.sqrt(1.0 - n_par / n_res)
            ratios.append(report.final_rms / expected)
        assert abs(np.mean(ratios) - 1.0) < 0.2
