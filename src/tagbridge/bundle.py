"""Bundle block adjustment: refine the exterior orientation of the images
and the object points by minimizing reprojection error with
Levenberg-Marquardt. The interior orientation is fixed calibration.

The Jacobian is closed-form, built in one vectorized pass over the
measurements that shares the projection with the residuals: per
measurement a 2x6 pose block (t, omega, phi, kappa) and a 2x3 point block.
The normal equations are accumulated by block: U, dense over the camera
unknowns (the unanchored poses); V, one 3x3 block per point; W between them.
Each LM trial eliminates the points by the Schur complement, solves the
reduced camera system and back-substitutes the points (Triggs et al.,
"Bundle Adjustment -- A Modern Synthesis", 2000; Lourakis & Argyros, SBA,
2009). V stays block-diagonal and W is n_cam x 3 n_points: no matrix over
pairs of points is formed, and the dense, cubic solve is over the camera
unknowns only, so it puts no cap on the number of points (dense normal
equations over every unknown would cap a block at about 10^3 parameters).
The closed-form blocks are tested against central differences (`tests/oracles.py`).

The LM loop stops on a vanishing gradient, or before a trial step delta whose
decrease of cost = r^T r, as the damped linear model predicts it, is within
the float64 rounding of the cost: size(r) * eps * cost for the sum, plus
the floor (eps |obs|)^2 that the residuals' own rounding, each about eps
times its measured pixel, sets under the cost (|obs| is the norm of all
measured pixel coordinates). Such a step cannot lower the cost measurably
(Madsen, Nielsen & Tingleff, "Methods for Non-Linear Least Squares
Problems", 2004, sec. 3.2; MINPACK's `ftol` test, More 1978). The prediction, lam delta^T D delta - g^T delta, is exact for
the damped system (J^T J + lam D) delta = -g. There is no step-norm test.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GaugeNotFixed,
    GimbalLock,
    SingularNormalEquations,
    Underconstrained,
)
from .geometry import (
    BEHIND_CAMERA_EPS,
    CameraIntrinsics,
    Pose,
    _group_sums,
    distortion_factor,
    rotation_from_angles,
)

logger = logging.getLogger(__name__)

# Residual assigned (per component) to measurements behind the camera.
BEHIND_RESIDUAL = 1e6
MAX_PHI_DEG = 89.0
_MAX_PHI = math.radians(MAX_PHI_DEG)
LAMBDA_INIT = 1e-3
LAMBDA_MAX = 1e15
# The rules that can end `solve` (`SolveReport.stop`), each with whether it
# counts as converged
STOP_RULES = {"gradient": True, "predicted_decrease": True, "no_free_parameters": True,
              "no_acceptable_step": False, "max_iters": False}


@dataclass
class BundleProblem:
    """A block to adjust: the intrinsics are fixed, the poses free unless
    anchored, the points always free."""

    intrinsics: CameraIntrinsics
    poses: dict
    points: dict
    measurements: list  # (image_id, point_id, (2,) pixel)
    anchors: frozenset = frozenset()

    def __post_init__(self):
        self.anchors = frozenset(self.anchors)
        for image_id, point_id, _ in self.measurements:
            if image_id not in self.poses:
                raise ValueError(f"measurement references unknown image {image_id!r}")
            if point_id not in self.points:
                raise ValueError(f"measurement references unknown point {point_id!r}")
        for a in self.anchors:
            if a not in self.poses:
                raise ValueError(f"anchor references unknown image {a!r}")


@dataclass
class SolveReport:
    initial_rms: float
    final_rms: float
    iterations: int
    converged: bool
    damping_trace: list  # initial damping, then the damping after each trial
    cost_trace: list  # initial cost, then the cost after each accepted step
    stop: str  # the rule that ended the solve: one of STOP_RULES
    residual_evals: int  # passes projecting every measurement, Jacobians included


def _stacked(values, width: int, name) -> np.ndarray:
    """`values` as a (len, width) float64 array; raises ValueError naming
    `name(i)` for the first value that is not a finite (width,) vector."""
    try:
        a = np.array(values, dtype=float).reshape(len(values), width)
        if np.isfinite(a).all():
            return a
    except ValueError:  # ragged, or not `width` values each
        pass
    i = next(i for i, v in enumerate(values)
             if np.shape(v) != (width,) or not np.isfinite(v).all())
    raise ValueError(f"{name(i)} must be a finite ({width},) vector")


class _Packer:
    """Maps between a flat parameter vector and problem state, vectorized.

    The vector holds the unanchored poses as (t, omega, phi, kappa) rows
    (the first `n_cam` entries: the camera unknowns), then the points as
    (x, y, z) rows.
    """

    def __init__(self, problem: BundleProblem):
        self.problem = problem
        self.pose_ids = sorted(problem.poses)
        self.point_ids = sorted(problem.points)
        pose_index = {p: i for i, p in enumerate(self.pose_ids)}
        point_index = {p: i for i, p in enumerate(self.point_ids)}

        meas = problem.measurements
        self.obs = _stacked([m[2] for m in meas], 2,
                            lambda i: f"pixel of point {meas[i][1]!r} in image {meas[i][0]!r}")
        self.meas_pose = np.array([pose_index[m[0]] for m in meas], dtype=int)
        self.meas_point = np.array([point_index[m[1]] for m in meas], dtype=int)

        self.base_pose = np.array([np.concatenate([problem.poses[p].t, problem.poses[p].r])
                                   for p in self.pose_ids]).reshape(-1, 6)
        self.base_pts = _stacked([problem.points[p] for p in self.point_ids], 3,
                                 lambda i: f"point {self.point_ids[i]!r}")

        pose_free = np.array([p not in problem.anchors for p in self.pose_ids], dtype=bool)
        self.free_pose_rows = np.flatnonzero(pose_free)
        self.n_free = len(self.free_pose_rows)
        self.n_cam = 6 * self.n_free
        self.n_params = self.n_cam + 3 * len(self.point_ids)

        # Camera columns of each measurement: its pose's six, when any pose
        # is free. A measurement on an anchored pose gets zero entries,
        # indexed at column 0.
        self.meas_pose_free = pose_free[self.meas_pose]
        free_rank = np.cumsum(pose_free) - 1
        pose_cols = 6 * np.where(self.meas_pose_free, free_rank[self.meas_pose], 0)
        self.cam_cols = pose_cols[:, None] + np.arange(6 if self.n_free else 0)

    def pose_block(self, x: np.ndarray) -> np.ndarray:
        """The free poses in x as (n_free, 6) rows of (t, omega, phi, kappa)."""
        return x[:self.n_cam].reshape(-1, 6)

    def initial_vector(self) -> np.ndarray:
        return np.concatenate([self.base_pose[self.free_pose_rows].ravel(),
                               self.base_pts.ravel()])

    def unpack(self, x: np.ndarray):
        """(t, r, points) at x."""
        pose = self.base_pose.copy()
        pose[self.free_pose_rows] = self.pose_block(x)
        return pose[:, :3], pose[:, 3:], x[self.n_cam:].reshape(-1, 3)

    def _predict(self, x: np.ndarray):
        t, r, pts = self.unpack(x)
        intr = self.problem.intrinsics
        R = rotation_from_angles(r)[self.meas_pose]
        d = pts[self.meas_point] - t[self.meas_pose]
        cam = np.einsum("mji,mj->mi", R, d)
        depth = cam[:, 2]
        behind = depth <= BEHIND_CAMERA_EPS
        safe = np.where(behind, 1.0, depth)
        norm = cam[:, :2] / safe[:, None]
        r2 = np.sum(norm * norm, axis=1, keepdims=True)
        scale = distortion_factor(intr.k, r2)
        focal = intr.focal_px
        res = self.obs - ((intr.x0, intr.y0) + focal * (norm * scale))
        res[behind] = BEHIND_RESIDUAL
        return res, behind, (R, d, r, safe, norm, r2, scale, focal)

    def residuals(self, x: np.ndarray):
        res, behind, _ = self._predict(x)
        return res.ravel(), behind

    def linearize(self, x: np.ndarray):
        """Residuals at x and their closed-form Jacobian blocks.

        Returns (residuals (M, 2), J_cam (M, 2, q), J_point (M, 2, 3)):
        J_cam holds each measurement's derivatives in the camera columns
        `cam_cols` (M, q); J_point those in its point's columns
        n_cam + 3 * meas_point + (0, 1, 2).
        Rows of behind-camera measurements are zero: their residual is the
        constant BEHIND_RESIDUAL.
        """
        res, behind, (R, d, r, depth, norm, r2, scale, focal) = self._predict(x)
        k = self.problem.intrinsics.k
        dscale = np.zeros_like(scale)  # d scale / d r^2
        for i in range(len(k) - 1, 0, -1):
            dscale = dscale * r2 + i * k[i]
        # d pixel / d normalized = focal (scale I + 2 scale' n n^T), and
        # d normalized / d camera point = [I | -n] / depth
        dpx_dn = 2.0 * dscale[:, :, None] * norm[:, :, None] * norm[:, None, :]
        dpx_dn[:, [0, 1], [0, 1]] += scale
        dn_dcam = np.zeros((len(norm), 2, 3))
        dn_dcam[:, [0, 1], [0, 1]] = 1.0
        dn_dcam[:, :, 2] = -norm
        dpx_dcam = focal * dpx_dn @ (dn_dcam / depth[:, None, None])
        # camera point = R^T (P - t), so d pixel / d P = dpx_dcam R^T
        dpx_dP = np.einsum("mik,mjk->mij", dpx_dcam, R)

        J_cam = np.zeros((len(norm), 2, 0))
        if self.n_free:
            # d R / d angle = [a]x R with a = R e_x (omega), Rz(kappa) e_y (phi)
            # and e_z (kappa), so d camera point / d angle = R^T ((P - t) x a)
            kappa = r[self.meas_pose, 2]
            axes = np.zeros((len(norm), 3, 3))
            axes[:, 0] = R[:, :, 0]
            axes[:, 1, 0] = -np.sin(kappa)
            axes[:, 1, 1] = np.cos(kappa)
            axes[:, 2, 2] = 1.0
            dpx_dangles = np.einsum("mij,maj->mia", dpx_dP, np.cross(d[:, None, :], axes))
            J_cam = (np.concatenate([dpx_dP, -dpx_dangles], axis=2)
                     * self.meas_pose_free[:, None, None])
        J_cam[behind] = 0.0
        J_point = -dpx_dP
        J_point[behind] = 0.0
        return res, J_cam, J_point

    def rebuild_problem(self, x: np.ndarray) -> BundleProblem:
        t, r, pts = self.unpack(x)
        poses = {p: Pose(t=t[i], r=r[i]) for i, p in enumerate(self.pose_ids)}
        points = {p: pts[i].copy() for i, p in enumerate(self.point_ids)}
        return BundleProblem(
            intrinsics=self.problem.intrinsics, poses=poses, points=points,
            measurements=list(self.problem.measurements), anchors=self.problem.anchors,
        )


def _times_block_diag(W: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """W (q, 3 p) times the block diagonal of `blocks` (p, 3, 3).

    Each output adds its three products in the order that
    np.einsum("cpi,pij->cpj") adds them, so the two agree bit for bit; a
    matmul may differ in the last bit, which changes the LM path.
    """
    W3 = W.reshape(len(W), len(blocks), 3)
    return sum(W3[:, :, i, None] * blocks[:, i] for i in range(3)).reshape(W.shape)


class _NormalEquations:
    """J^T J and g = J^T r at x, by block: U over the camera unknowns (dense),
    V as one 3x3 block per point, W (n_cam, 3 n_points) between them, and
    the damping scale D = max(diag(J^T J), 1e-12)."""

    def __init__(self, packer: _Packer, x: np.ndarray):
        res, J_cam, J_point = packer.linearize(x)
        nc = packer.n_cam
        cols = packer.cam_cols
        self.U = np.bincount((cols[:, :, None] * nc + cols[:, None, :]).ravel(),
                             np.einsum("mia,mib->mab", J_cam, J_cam).ravel(),
                             minlength=nc * nc).reshape(nc, nc)
        g_cam = np.bincount(cols.ravel(), np.einsum("mia,mi->ma", J_cam, res).ravel(),
                            minlength=nc)
        n_pts = len(packer.point_ids)
        pt = packer.meas_point[:, None] * 3 + np.arange(3)  # point columns
        JtJ = np.einsum("mia,mib->mab", J_point, J_point).reshape(-1, 9)
        self.V = _group_sums(packer.meas_point, JtJ, n_pts).reshape(n_pts, 3, 3)
        self.W = np.bincount((cols[:, :, None] * 3 * n_pts + pt[:, None, :]).ravel(),
                             np.einsum("mia,mib->mab", J_cam, J_point).ravel(),
                             minlength=nc * 3 * n_pts).reshape(nc, 3 * n_pts)
        g_point = _group_sums(packer.meas_point, np.einsum("mia,mi->ma", J_point, res), n_pts)
        self.g = np.concatenate([g_cam, g_point.ravel()])
        self.D = np.maximum(np.concatenate([np.diag(self.U),
                                            self.V[:, [0, 1, 2], [0, 1, 2]].ravel()]), 1e-12)

    def step(self, lam: float) -> np.ndarray:
        """Solve (J^T J + lam diag(D)) delta = -g.

        The points are eliminated by the Schur complement; raises
        np.linalg.LinAlgError when a system is singular.
        """
        nc = len(self.U)
        g_cam, g_point = self.g[:nc], self.g[nc:].reshape(-1, 3)
        U = self.U + lam * np.diag(self.D[:nc])
        V = self.V.copy()
        V[:, [0, 1, 2], [0, 1, 2]] += lam * self.D[nc:].reshape(-1, 3)
        V_inv = np.linalg.inv(V)
        W = self.W
        W_V_inv = _times_block_diag(W, V_inv)
        d_cam = np.linalg.solve(U - W_V_inv @ W.T, W_V_inv @ g_point.ravel() - g_cam)
        d_point = -np.einsum("pij,pj->pi", V_inv, g_point + (W.T @ d_cam).reshape(-1, 3))
        return np.concatenate([d_cam, d_point.ravel()])

    def predicted_decrease(self, lam: float, delta: np.ndarray) -> float:
        """r^T r - |r + J delta|^2 for delta = step(lam).

        That is -2 g^T delta - delta^T J^T J delta, and (J^T J + lam D)
        delta = -g turns it into lam delta^T D delta - g^T delta.
        """
        return float(lam * (self.D @ (delta * delta)) - self.g @ delta)


def _rms(residuals: np.ndarray) -> float:
    if residuals.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(residuals ** 2)))


def _check_preconditions(problem: BundleProblem, packer: _Packer):
    if not problem.anchors:
        raise GaugeNotFixed("all poses free: anchor at least one pose id")
    pairs = np.unique(np.stack([packer.meas_point, packer.meas_pose], axis=1), axis=0)
    n_images = np.bincount(pairs[:, 0], minlength=len(packer.point_ids))
    few = np.flatnonzero(n_images < 2)
    if few.size:
        raise Underconstrained(packer.point_ids[few[0]], int(n_images[few[0]]))
    steep = np.flatnonzero(np.abs(packer.base_pose[:, 4]) >= _MAX_PHI)
    if steep.size:
        raise GimbalLock(
            f"pose {packer.pose_ids[steep[0]]!r} has |phi| >= {MAX_PHI_DEG} deg; "
            "reparameterize the block")


def solve(problem: BundleProblem, max_iters: int = 100, gradient_tol: float = 1e-10):
    """Levenberg-Marquardt over the unanchored poses and every point.

    Each iteration builds the closed-form Jacobian blocks and the block
    normal equations; each trial solves them with the points eliminated by
    the Schur complement. Damping starts at 1e-3, x10 on a rejected step,
    /10 on an accepted one; it scales D = max(diag(J^T J), 1e-12). Cost
    never increases. Returns (updated problem, SolveReport).

    `SolveReport.stop` names the rule that ended the solve (STOP_RULES):
    - "gradient": max |J^T r| < gradient_tol.
    - "predicted_decrease": the next trial step, solved but not evaluated,
      is predicted to lower the cost by at most its float64 rounding,
      size(r) * eps * cost + (eps |obs|)^2 (see the module docstring). A
      vanishing step predicts a vanishing decrease, so this rule also
      stops where a step-norm test would; there is no `step_tol`.
    - "no_acceptable_step": the damping passed LAMBDA_MAX without a trial
      that lowered the cost.
    - "max_iters".
    - "no_free_parameters": nothing to solve for.
    """
    packer = _Packer(problem)
    _check_preconditions(problem, packer)

    def fun(x):
        return packer.residuals(x)[0]

    x = packer.initial_vector()
    r = fun(x)
    evals = 1
    cost = float(r @ r)
    initial_rms = _rms(r)
    lam = LAMBDA_INIT
    trace = [lam]
    costs = [cost]
    iterations = 0

    if packer.n_params == 0:
        return packer.rebuild_problem(x), SolveReport(
            initial_rms, initial_rms, 0, True, trace, costs, "no_free_parameters", evals)

    eps = np.finfo(float).eps
    floor = (eps * np.linalg.norm(packer.obs)) ** 2  # the residuals' own rounding
    stop = "max_iters"
    for iterations in range(1, max_iters + 1):
        normal = _NormalEquations(packer, x)
        evals += 1
        if np.max(np.abs(normal.g)) < gradient_tol:
            stop = "gradient"
            iterations -= 1
            break

        rounding = r.size * eps * cost + floor
        while True:
            if lam > LAMBDA_MAX:
                stop = "no_acceptable_step"
                break
            try:
                delta = normal.step(lam)
            except np.linalg.LinAlgError as err:
                raise SingularNormalEquations(str(err)) from None
            if normal.predicted_decrease(lam, delta) <= rounding:
                stop = "predicted_decrease"
                break
            x_new = x + delta
            phi = packer.pose_block(x_new)[:, 4]
            if phi.size and np.max(np.abs(phi)) >= _MAX_PHI:
                cost_new = math.inf  # rejected without evaluating it
            else:
                r_new = fun(x_new)
                evals += 1
                cost_new = float(r_new @ r_new)
            if cost_new < cost:
                x, r, cost = x_new, r_new, cost_new
                lam = max(lam / 10.0, 1e-12)
                trace.append(lam)
                costs.append(cost)
                break
            lam *= 10.0
            trace.append(lam)
        if stop != "max_iters":
            break

    converged = STOP_RULES[stop]
    final_rms = _rms(r)
    report = SolveReport(initial_rms=initial_rms, final_rms=final_rms,
                         iterations=iterations, converged=converged,
                         damping_trace=trace, cost_trace=costs, stop=stop,
                         residual_evals=evals)
    if not converged:
        logger.warning("LM stopped on %s after %d iterations (rms %.3e px)",
                       stop, iterations, final_rms)
    return packer.rebuild_problem(x), report
