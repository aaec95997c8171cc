"""Bundle block adjustment: refine the exterior orientation of the images
and the object points by minimizing reprojection error with
Levenberg-Marquardt. The interior orientation is fixed calibration.

The unknowns of a free pose are its center t and a rotation increment delta
in its camera frame, R <- R exp([delta]x), which an accepted step folds into
R (Triggs et al. 2000, sec. 2.2; Sola, Deray & Atchuthan, arXiv:1812.01537).
The Jacobian is closed-form, built in one vectorized pass over the
measurements from the projection that gave the residuals: per measurement
a 2x6 pose block (t, delta) and a 2x3 point block. `solve` projects each
state it evaluates once, the initial state and each trial, and builds an
accepted state's Jacobian from that projection.
Every per-measurement array is component-major, its M measurements on the
last axis: residuals (2, M), rotations (3, 3, M), Jacobian blocks (2, 6, M)
and (2, 3, M). So each product and sum over the small axes is an
elementwise expression over rows of length M, its terms added in the order
of the per-measurement einsums it replaced (`tests/oracles.py`).
The normal equations are accumulated by block: U, dense over the camera
unknowns (the unanchored poses); V, one 3x3 block per point; W between them.
Every pose owns six camera columns, the unanchored poses' first, so every
measurement is binned alike and the unknowns' blocks are the leading ones.
Each block, and each half of g = J^T r, is one bincount into bin indices
that depend only on the problem's structure, so `_Packer` builds them, and
U's mirror index, once.
Each LM trial eliminates the points by the Schur complement, solves the
reduced camera system and back-substitutes the points (Triggs et al.,
"Bundle Adjustment -- A Modern Synthesis", 2000; Lourakis & Argyros, SBA,
2009). V stays block-diagonal and W is n_cam x 3 n_points: no matrix over
pairs of points is formed, and the dense, cubic solve is over the camera
unknowns only, so it puts no cap on the number of points (dense normal
equations over every unknown would cap a block at about 10^3 parameters).
The closed-form blocks are tested against central differences (`tests/oracles.py`).

The LM loop stops before a trial step delta whose decrease of cost = r^T r,
as the damped linear model predicts it, is within the float64 rounding of
the cost: size(r) * eps * cost for the sum, plus the floor (eps |obs|)^2
that the residuals' own rounding, each about eps times its measured pixel,
sets under the cost (|obs| is the norm of all measured pixel coordinates).
Such a step cannot lower the cost measurably (Madsen, Nielsen & Tingleff,
"Methods for Non-Linear Least Squares Problems", 2004, sec. 3.2; MINPACK's
`ftol` test, More 1978). The prediction, lam delta^T D delta - g^T delta,
is exact for the damped system (J^T J + lam D) delta = -g. A vanishing
gradient or step predicts a vanishing decrease, so there is no gradient or
step-norm test.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import GaugeNotFixed, SingularNormalEquations, Underconstrained
from .geometry import (
    BEHIND_CAMERA_EPS,
    CameraIntrinsics,
    Pose,
    angles_from_rotation,
    rotation_from_angles,
)

logger = logging.getLogger(__name__)

# Residual assigned (per component) to measurements behind the camera.
BEHIND_RESIDUAL = 1e6
LAMBDA_INIT = 1e-3
LAMBDA_MAX = 1e15
# The rules that can end `solve` (`SolveReport.stop`), each with whether it
# counts as converged
STOP_RULES = {"predicted_decrease": True, "no_free_parameters": True,
              "no_acceptable_step": False, "max_iters": False}
# The (3, 9) map from w to [w]x flattened: row i is [e_i]x
_SKEW = np.cross(np.eye(3)[:, None], np.eye(3)).transpose(0, 2, 1).reshape(3, 9)


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
        meas = self.measurements = list(self.measurements)
        self.anchors = frozenset(self.anchors)
        images = set(map(itemgetter(0), meas)) - self.poses.keys()
        points = set(map(itemgetter(1), meas)) - self.points.keys()
        if images or points:  # name the first measurement with an unknown id
            image_id, point_id, _ = next(m for m in meas if m[0] in images or m[1] in points)
            if image_id in images:
                raise ValueError(f"measurement references unknown image {image_id!r}")
            raise ValueError(f"measurement references unknown point {point_id!r}")
        for a in self.anchors:
            if a not in self.poses:
                raise ValueError(f"anchor references unknown image {a!r}")


@dataclass
class SolveReport:
    initial_rms: float
    final_rms: float
    iterations: int
    damping_trace: list  # initial damping, then the damping after each trial
    cost_trace: list  # initial cost, then the cost after each accepted step
    stop: str  # the rule that ended the solve: one of STOP_RULES

    @property
    def converged(self) -> bool:
        return STOP_RULES[self.stop]

    @property
    def residual_evals(self) -> int:  # projections: the initial state and each trial
        return len(self.damping_trace)


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


def _exp(w: np.ndarray) -> np.ndarray:
    """exp([w]x) of (n, 3) rotation vectors by Rodrigues' formula, cos(theta) I
    + sin(theta) / theta [w]x + (1 - cos(theta)) / theta^2 w w^T, theta = |w|;
    theta^2 floored at the smallest normal float, so w = 0 gives I."""
    theta2 = np.maximum(np.vecdot(w, w), np.finfo(float).tiny)
    theta = np.sqrt(theta2)
    cos = np.cos(theta)
    E = ((1.0 - cos) / theta2)[:, None, None] * (w[:, :, None] * w[:, None, :])
    E += ((np.sin(theta) / theta)[:, None] * w @ _SKEW).reshape(-1, 3, 3)
    E.reshape(-1, 9)[:, ::4] += cos[:, None]
    return E


class _Packer:
    """Maps between a flat parameter vector and problem state, vectorized.

    The vector holds the unanchored poses as (t, delta) rows (the first
    `n_cam` entries: the camera unknowns), then the points as (x, y, z)
    rows. It stands for the rotations R exp([delta]x) of the poses' kept
    rotations R, which `fold` updates.
    """

    def __init__(self, problem: BundleProblem):
        self.problem = problem
        # the unanchored poses first, then the anchored ones, each in sorted-id order
        self.pose_ids = sorted(sorted(problem.poses), key=problem.anchors.__contains__)
        self.n_free = len(self.pose_ids) - len(problem.anchors)
        self.point_ids = sorted(problem.points)
        pose_index = {p: i for i, p in enumerate(self.pose_ids)}
        point_index = {p: i for i, p in enumerate(self.point_ids)}

        meas = problem.measurements
        intr = problem.intrinsics
        self.principal = np.array([[intr.x0], [intr.y0]])  # (2, 1)
        obs = _stacked([m[2] for m in meas], 2,
                       lambda i: f"pixel of point {meas[i][1]!r} in image {meas[i][0]!r}")
        self.obs = obs.T.copy()  # (2, M)
        self.meas_pose = np.array([pose_index[m[0]] for m in meas], dtype=int)
        self.meas_point = np.array([point_index[m[1]] for m in meas], dtype=int)

        self.base_t = np.array([problem.poses[p].t for p in self.pose_ids]).reshape(-1, 3)
        self.rot = rotation_from_angles(
            np.array([problem.poses[p].r for p in self.pose_ids]).reshape(-1, 3))
        self.base_pts = _stacked([problem.points[p] for p in self.point_ids], 3,
                                 lambda i: f"point {self.point_ids[i]!r}")

        self.n_cam = 6 * self.n_free
        self.u_lower = np.tril_indices(self.n_cam, -1)  # U's entries mirrored from above
        self.n_params = self.n_cam + 3 * len(self.point_ids)

        # Camera columns of each measurement: its pose's six. Every pose owns
        # six in pose order, so the free poses' are the unknowns, below n_cam.
        self.n_cam_cols = 6 * len(self.pose_ids)
        self.cam_cols = 6 * self.meas_pose[:, None] + np.arange(6)

        # Bin indices of the normal equations' (a, b, M) terms, flattened, so
        # each bin adds its measurements in m order: U[cam[a], cam[b]] for
        # the pairs a <= b of `u_pairs` (the upper triangle, cam[a] <= cam[b]),
        # V[meas_point, a, b], W[cam[a], pt[b]], g_cam[cam[a]], g_point[pt[a]]
        # for cam = cam_cols.T and pt = 3 meas_point + (0, 1, 2)
        cam = self.cam_cols.T
        pt = 3 * self.meas_point + np.arange(3)[:, None]
        self.u_pairs = np.triu_indices(6)
        a, b = self.u_pairs
        self.u_bins = (cam[a] * self.n_cam_cols + cam[b]).ravel()
        self.v_bins = (3 * pt[:, None] + np.arange(3)[:, None]).ravel()
        self.w_bins = (cam[:, None] * 3 * len(self.point_ids) + pt).ravel()
        self.g_cam_bins = cam.ravel()
        self.g_point_bins = pt.ravel()

    def pose_block(self, x: np.ndarray) -> np.ndarray:
        """The free poses in x as (n, 6) rows of (t, delta), a view."""
        return x[:self.n_cam].reshape(-1, 6)

    def initial_vector(self) -> np.ndarray:
        poses = np.hstack([self.base_t[:self.n_free], np.zeros((self.n_free, 3))])
        return np.concatenate([poses.ravel(), self.base_pts.ravel()])

    def unpack(self, x: np.ndarray):
        """(t, rotations (n_poses, 3, 3), points) at x."""
        block, n = self.pose_block(x), self.n_free
        rot = np.concatenate([self.rot[:n] @ _exp(block[:, 3:]), self.rot[n:]])
        return np.concatenate([block[:, :3], self.base_t[n:]]), rot, x[self.n_cam:].reshape(-1, 3)

    def fold(self, x: np.ndarray, projected):
        """Keep the rotations of `projected` = `_predict(x)`; zero x's increments in place."""
        self.rot = projected[2][0]
        self.pose_block(x)[:, 3:] = 0.0

    def _predict(self, x: np.ndarray):
        """The projection of x: (residuals (2, M), behind (M,), the rotations
        at x and the terms that `linearize` builds the Jacobian blocks from)."""
        t, rot, pts = self.unpack(x)
        R = rot.transpose(1, 2, 0).take(self.meas_pose, axis=2)
        d = pts.T.take(self.meas_point, axis=1) - t.T.take(self.meas_pose, axis=1)
        # camera point = R^T d, its three terms added in sequence
        cam = R[0] * d[0] + R[1] * d[1] + R[2] * d[2]
        depth = cam[2]
        behind = depth <= BEHIND_CAMERA_EPS
        safe = np.where(behind, 1.0, depth)
        norm = cam[:2] / safe
        focal = self.problem.intrinsics.focal_px
        res = self.obs - (self.principal + focal * norm)
        res[:, behind] = BEHIND_RESIDUAL
        return res, behind, (rot, R, safe, norm, focal)

    def residuals(self, x: np.ndarray):
        res, behind, _ = self._predict(x)
        return res.T.ravel(), behind

    def linearize(self, projected):
        """Residuals and closed-form Jacobian blocks of `projected` =
        `_predict(x)`, component-major; x is not projected again.

        Returns (residuals (2, M), J_cam (2, 6, M), J_point (2, 3, M)):
        J_cam[i, a, m] is the derivative of measurement m's pixel component
        i in its pose's camera column `cam_cols[m, a]`, an unknown when that
        is below n_cam; J_point[i, b, m] that in its point's column
        n_cam + 3 * meas_point[m] + b.
        Columns of behind-camera measurements are zero: their residual is
        the constant BEHIND_RESIDUAL.
        """
        res, behind, (_, R, depth, norm, focal) = projected
        # d pixel / d camera point = focal [I | -n] / depth, and camera point
        # = R^T (P - t), so d pixel_i / d P_j = scale R[j, i] + slope_i R[j, 2],
        # the zero product of [I | -n]'s off-diagonal dropped
        scale = focal * (1.0 / depth)
        slope = focal * (-norm / depth)
        J_cam = np.empty((2, 6, len(depth)))
        dpx_dP = J_cam[:, :3]
        np.multiply(slope[:, None], R[:, 2], out=dpx_dP)
        dpx_dP += scale * R[:, :2].transpose(1, 0, 2)
        J_point = -dpx_dP
        J_point[..., behind] = 0.0

        # camera point c = exp(-[delta]x) R^T (P - t), so d c / d delta = [c]x
        # at delta = 0, and d pixel / d delta = focal [I | -n] [c]x / depth
        # = focal [[n0 n1, -(1 + n0^2), n1], [1 + n1^2, -n0 n1, -n0]]
        n0, n1 = norm
        J_cam[:, 3:] = [[n0 * n1, -1.0 - n0 * n0, n1], [1.0 + n1 * n1, -(n0 * n1), -n0]]
        J_cam[:, 3:] *= -focal
        J_cam[..., behind] = 0.0
        return res, J_cam, J_point

    def rebuild_problem(self, x: np.ndarray) -> BundleProblem:
        t, rot, pts = self.unpack(x)
        r = angles_from_rotation(rot[:self.n_free])  # the anchored poses as given
        poses = {p: Pose(t=t[i], r=r[i]) for i, p in enumerate(self.pose_ids[:self.n_free])}
        poses.update((p, self.problem.poses[p]) for p in self.pose_ids[self.n_free:])
        points = {p: pts[i].copy() for i, p in enumerate(self.point_ids)}
        given = self.problem
        return BundleProblem(given.intrinsics, poses, points, given.measurements, given.anchors)


def _times_block_diag(W: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """W (q, 3 p) times the block diagonal of `blocks` (p, 3, 3).

    The operands are taken as (3, q, p) and (3, 3, p), so every product is
    over rows of length p. Each output adds its three products in the order
    that np.einsum("cpi,pij->cpj") adds them, so the two agree bit for bit; a
    matmul may differ in the last bit, which changes the LM path.
    """
    W3 = W.reshape(len(W), len(blocks), 3).transpose(2, 0, 1)
    B = blocks.transpose(1, 2, 0)
    out = np.empty((len(W), len(blocks), 3))
    for j, o in enumerate(out.transpose(2, 0, 1)):
        np.multiply(W3[0], B[0, j], out=o)
        o += W3[1] * B[1, j]
        o += W3[2] * B[2, j]
    return out.reshape(W.shape)


def _binned_products(bins: np.ndarray, A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """Each measurement's A^T B over its two pixel rows, (2, k, M) A and
    (2, l, M) B, summed into the (k, l, M) `bins` of an n-vector."""
    return np.bincount(bins, (A[0, :, None] * B[0] + A[1, :, None] * B[1]).ravel(), n)


class _NormalEquations:
    """J^T J and g = J^T r at x, by block: U over the camera unknowns (dense),
    V as one 3x3 block per point, W (n_cam, 3 n_points) between them, and
    the damping scale D = max(diag(J^T J), 1e-12). Each block of J^T J
    and each half of g is one bincount into the packer's bins over every
    pose's camera columns, of which U, W and g keep the leading n_cam."""

    def __init__(self, packer: _Packer, x: np.ndarray, projected):
        """Built from `projected` = `packer._predict(x)`, the projection that
        gave x's residuals, so x itself is not read (the oracle in
        `tests/oracles.py` projects it again)."""
        res, J_cam, J_point = packer.linearize(projected)
        nc, n_cols, n_pts = packer.n_cam, packer.n_cam_cols, len(packer.point_ids)
        res = res[:, None]
        a, b = packer.u_pairs  # U is symmetric: form the a <= b products, mirror the rest
        upper = J_cam[0, a] * J_cam[0, b] + J_cam[1, a] * J_cam[1, b]
        self.U = np.bincount(packer.u_bins, upper.ravel(),
                             n_cols * n_cols).reshape(n_cols, n_cols)[:nc, :nc]
        self.U[packer.u_lower] = self.U.T[packer.u_lower]
        self.V = _binned_products(packer.v_bins, J_point, J_point, 9 * n_pts).reshape(n_pts, 3, 3)
        self.W = _binned_products(packer.w_bins, J_cam, J_point,
                                  n_cols * 3 * n_pts).reshape(n_cols, 3 * n_pts)[:nc]
        self.g = np.concatenate([_binned_products(packer.g_cam_bins, J_cam, res, n_cols)[:nc],
                                 _binned_products(packer.g_point_bins, J_point, res, 3 * n_pts)])
        # a 3x3 block's diagonal is every fourth entry of its flat row
        v_diag = self.V.reshape(-1, 9)[:, ::4]
        self.D = np.maximum(np.concatenate([np.diag(self.U), v_diag.ravel()]), 1e-12)

    def step(self, lam: float) -> np.ndarray:
        """Solve (J^T J + lam diag(D)) delta = -g.

        The points are eliminated by the Schur complement; raises
        np.linalg.LinAlgError when a system is singular.
        """
        nc = len(self.U)
        g_cam, g_point = self.g[:nc], self.g[nc:].reshape(-1, 3)
        U = self.U + lam * np.diag(self.D[:nc])
        V = self.V.copy()
        V.reshape(-1, 9)[:, ::4] += lam * self.D[nc:].reshape(-1, 3)
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
    n_poses = len(packer.pose_ids)
    pairs = np.unique(packer.meas_point * n_poses + packer.meas_pose)  # one per point and image
    n_images = np.bincount(pairs // n_poses, minlength=len(packer.point_ids))
    few = np.flatnonzero(n_images < 2)
    if few.size:
        raise Underconstrained(packer.point_ids[few[0]], int(n_images[few[0]]))


def solve(problem: BundleProblem, max_iters: int = 100):
    """Levenberg-Marquardt over the unanchored poses and every point.

    Each iteration builds the closed-form Jacobian blocks, from the
    projection that evaluated its state, and the block normal equations;
    each trial solves them with the points eliminated by
    the Schur complement. Damping starts at 1e-3, x10 on a rejected step,
    /10 on an accepted one; it scales D = max(diag(J^T J), 1e-12). Cost
    never increases. Returns (updated problem, SolveReport).

    `SolveReport.stop` names the rule that ended the solve (STOP_RULES):
    - "predicted_decrease": the next trial step, solved but not evaluated,
      is predicted to lower the cost by at most its float64 rounding,
      size(r) * eps * cost + (eps |obs|)^2 (see the module docstring). A
      vanishing gradient or step predicts a vanishing decrease, so this
      rule also stops where a gradient or step-norm test would; there is
      no `gradient_tol` or `step_tol`.
    - "no_acceptable_step": the damping passed LAMBDA_MAX without a trial
      that lowered the cost.
    - "max_iters".
    - "no_free_parameters": nothing to solve for.
    """
    packer = _Packer(problem)
    _check_preconditions(problem, packer)
    x = packer.initial_vector()
    projected = packer._predict(x)  # kept with x: its Jacobian is built from it
    r = projected[0].T.ravel()
    cost = float(r @ r)
    initial_rms = _rms(r)
    lam = LAMBDA_INIT
    trace = [lam]
    costs = [cost]
    iterations = 0

    if packer.n_params == 0:
        return packer.rebuild_problem(x), SolveReport(
            initial_rms, initial_rms, 0, trace, costs, "no_free_parameters")

    eps = np.finfo(float).eps
    floor = (eps * np.linalg.norm(packer.obs)) ** 2  # the residuals' own rounding
    stop = "max_iters"
    for iterations in range(1, max_iters + 1):
        normal = _NormalEquations(packer, x, projected)
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
            projected_new = packer._predict(x_new)
            r_new = projected_new[0].T.ravel()
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                packer.fold(x_new, projected_new)
                x, r, cost, projected = x_new, r_new, cost_new, projected_new
                lam = max(lam / 10.0, 1e-12)
                trace.append(lam)
                costs.append(cost)
                break
            lam *= 10.0
            trace.append(lam)
        if stop != "max_iters":
            break

    final_rms = _rms(r)
    report = SolveReport(initial_rms=initial_rms, final_rms=final_rms, iterations=iterations,
                         damping_trace=trace, cost_trace=costs, stop=stop)
    if not report.converged:
        logger.warning("LM stopped on %s after %d iterations (rms %.3e px)",
                       stop, iterations, final_rms)
    return packer.rebuild_problem(x), report
