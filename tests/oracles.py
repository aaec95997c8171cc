"""Slow, direct reference implementations that the fast library paths are tested against.

- `numeric_jacobian`: central differences, for the closed-form bundle
  Jacobian blocks;
- `reference_linearize` and `ReferenceNormalEquations`: the bundle's
  residuals, Jacobian blocks and block normal equations from
  measurement-major (M, 2, k) blocks and per-measurement einsums, for the
  component-major build of `bundle._Packer.linearize` and
  `bundle._NormalEquations`;
- `path_step` and `aggregate_one_path`: one SGM path at a time in float32,
  for the disparity-major uint16 sweeps of `aggregate_costs`;
- `reference_select`: masked float32 winner-take-all, uniqueness and
  left-right check over whole volumes, for the row-blocked uint32
  selection of `sgm.select_disparity`;
- `walk_voxels`: one voxel walk per ray, for the batched walk of
  `fusion._occluded`;
- `reference_accumulate`: voxel binning on point-major (N, 3) rows and
  strided value columns, for the component-major binning of
  `fusion.accumulate`;
- `reference_disparity_to_cloud`: back-projection through normalized pixel
  coordinates and stacked columns, for the in-place fill of
  `sgm.disparity_to_cloud`.
"""

import numpy as np

from tagbridge.bundle import BEHIND_RESIDUAL, _NormalEquations
from tagbridge.fusion import (
    _AXIS_BITS,
    _FRACTION_BITS,
    _HALF_SPAN,
    _SUM_LIMIT,
    PointCloud,
    VoxelGrid,
    _lookup,
)
from tagbridge.geometry import (
    BEHIND_CAMERA_EPS,
    CameraIntrinsics,
    Pose,
    _group_sums,
    _pixels_to_normalized,
)
from tagbridge.sgm import (
    FLAG_LR_FAILED,
    FLAG_OUT_OF_RANGE,
    FLAG_UNIQUENESS_FAILED,
    INVALID_DISPARITY,
    MIN_CLOUD_DISPARITY,
    DisparityMap,
)

# Relative central-difference step for the numeric Jacobian.
JACOBIAN_REL_STEP = 1e-7


def numeric_jacobian(fun, x: np.ndarray, rel_step: float = JACOBIAN_REL_STEP) -> np.ndarray:
    """Central-difference Jacobian of fun(x) -> (N,) at x (step relative, floor 1)."""
    r0 = fun(x)
    J = np.empty((r0.size, x.size))
    for j in range(x.size):
        h = rel_step * max(abs(x[j]), 1.0)
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        J[:, j] = (fun(xp) - fun(xm)) / (2.0 * h)
    return J


def reference_linearize(packer, x: np.ndarray):
    """(residuals (M, 2), J_cam (M, 2, 6), J_point (M, 2, 3)) of a bundle `_Packer` at x.

    The blocks of `_Packer.linearize`, transposed, built with (3, 3)
    rotations and 2x3 derivative blocks per measurement. The rotation block
    is the closed form in the normalized coordinates n, each measurement's
    -focal [[n0 n1, -(1 + n0^2), n1], [1 + n1^2, -n0 n1, -n0]]; the tests
    check it against central differences.
    """
    t, rot, pts = packer.unpack(x)
    intr = packer.problem.intrinsics
    R = rot[packer.meas_pose]
    d = pts[packer.meas_point] - t[packer.meas_pose]
    cam = np.einsum("mji,mj->mi", R, d)
    depth = cam[:, 2]
    behind = depth <= BEHIND_CAMERA_EPS
    depth = np.where(behind, 1.0, depth)
    norm = cam[:, :2] / depth[:, None]
    focal = intr.focal_px
    res = packer.obs.T - ((intr.x0, intr.y0) + focal * norm)
    res[behind] = BEHIND_RESIDUAL

    dn_dcam = np.zeros((len(norm), 2, 3))
    dn_dcam[:, [0, 1], [0, 1]] = 1.0
    dn_dcam[:, :, 2] = -norm
    dpx_dcam = focal * (dn_dcam / depth[:, None, None])
    dpx_dP = np.einsum("mik,mjk->mij", dpx_dcam, R)

    n0, n1 = norm.T
    dn_ddelta = np.empty((len(norm), 2, 3))
    dn_ddelta[:, 0] = np.column_stack([n0 * n1, -1.0 - n0 * n0, n1])
    dn_ddelta[:, 1] = np.column_stack([1.0 + n1 * n1, -(n0 * n1), -n0])
    J_cam = np.concatenate([dpx_dP, -focal * dn_ddelta], axis=2)
    J_cam[behind] = 0.0
    J_point = -dpx_dP
    J_point[behind] = 0.0
    return res, J_cam, J_point


class ReferenceNormalEquations(_NormalEquations):
    """`bundle._NormalEquations` (and its `step`) with U, V, W, g and D summed
    from `reference_linearize`'s blocks by per-measurement einsums, the bins
    indexed per call over every pose's camera columns, the leading n_cam kept.
    It projects x on its own: the projection passed in is ignored."""

    def __init__(self, packer, x: np.ndarray, projected):
        res, J_cam, J_point = reference_linearize(packer, x)
        nc, n_cols = packer.n_cam, packer.n_cam_cols
        cols = packer.cam_cols
        self.U = np.bincount((cols[:, :, None] * n_cols + cols[:, None, :]).ravel(),
                             np.einsum("mia,mib->mab", J_cam, J_cam).ravel(),
                             minlength=n_cols * n_cols).reshape(n_cols, n_cols)[:nc, :nc]
        g_cam = np.bincount(cols.ravel(), np.einsum("mia,mi->ma", J_cam, res).ravel(),
                            minlength=n_cols)[:nc]
        n_pts = len(packer.point_ids)
        pt = packer.meas_point[:, None] * 3 + np.arange(3)
        JtJ = np.einsum("mia,mib->mab", J_point, J_point).reshape(-1, 9)
        self.V = _group_sums(packer.meas_point, JtJ, n_pts).reshape(n_pts, 3, 3)
        self.W = np.bincount((cols[:, :, None] * 3 * n_pts + pt[:, None, :]).ravel(),
                             np.einsum("mia,mib->mab", J_cam, J_point).ravel(),
                             minlength=n_cols * 3 * n_pts).reshape(n_cols, 3 * n_pts)[:nc]
        g_point = _group_sums(packer.meas_point, np.einsum("mia,mi->ma", J_point, res), n_pts)
        self.g = np.concatenate([g_cam, g_point.ravel()])
        self.D = np.maximum(np.concatenate([np.diag(self.U),
                                            self.V[:, [0, 1, 2], [0, 1, 2]].ravel()]), 1e-12)


def path_step(prev: np.ndarray, p1: float, p2: float) -> np.ndarray:
    """min(prev[d], prev[d+-1]+P1, min_k prev[k]+P2) - min_k prev[k], vectorized over d."""
    m = prev.min(axis=-1, keepdims=True)
    cand = np.minimum(prev, m + p2)
    cand[..., 1:] = np.minimum(cand[..., 1:], prev[..., :-1] + p1)
    cand[..., :-1] = np.minimum(cand[..., :-1], prev[..., 1:] + p1)
    return cand - m


def aggregate_one_path(volume, direction, p1: float, p2: float) -> np.ndarray:
    """Accumulated costs L_r of a CostVolume for one path direction r = (dy, dx); float32 (H, W, D).

    The recursion starts at the image border with L_r = C.
    """
    dy, dx = direction
    C = volume.costs.astype(np.float32)
    flip_y, flip_x = dy < 0, dx < 0
    if flip_y:
        C = C[::-1]
    if flip_x:
        C = C[:, ::-1]
    ady, adx = abs(dy), abs(dx)

    L = np.empty_like(C)
    if (ady, adx) == (0, 1):
        L[:, 0] = C[:, 0]
        for x in range(1, C.shape[1]):
            L[:, x] = C[:, x] + path_step(L[:, x - 1], p1, p2)
    elif (ady, adx) == (1, 0):
        L[0] = C[0]
        for y in range(1, C.shape[0]):
            L[y] = C[y] + path_step(L[y - 1], p1, p2)
    elif (ady, adx) == (1, 1):
        L[0] = C[0]
        for y in range(1, C.shape[0]):
            L[y, 0] = C[y, 0]
            L[y, 1:] = C[y, 1:] + path_step(L[y - 1, :-1], p1, p2)
    else:
        raise ValueError(f"unsupported path direction {direction}")

    if flip_x:
        L = L[:, ::-1]
    if flip_y:
        L = L[::-1]
    return np.ascontiguousarray(L)


def _in_bounds_mask(W: int, d_min: int, D: int, base: str) -> np.ndarray:
    """(W, D) bool: does disparity d at column x map into the other image?"""
    x = np.arange(W)[:, None]
    d = d_min + np.arange(D)[None, :]
    other = x - d if base == "left" else x + d
    return (other >= 0) & (other < W)


def _wta(costs: np.ndarray, in_bounds: np.ndarray, d_min: int):
    """Masked winner-take-all with parabolic subpixel refinement.

    Out-of-bounds cells are inf in a float32 copy. Returns (disparity float32
    (H, W), valid bool, best_idx).
    """
    D = costs.shape[2]
    masked = np.where(in_bounds, costs, np.float32(np.inf))

    best_idx = np.argmin(masked, axis=2)
    best = np.take_along_axis(masked, best_idx[..., None], axis=2)[..., 0]
    valid = np.isfinite(best)

    # parabola through (c-, c0, c+); only where both neighbors are usable
    idx_m = np.clip(best_idx - 1, 0, D - 1)
    idx_p = np.clip(best_idx + 1, 0, D - 1)
    c0 = best
    cm = np.take_along_axis(masked, idx_m[..., None], axis=2)[..., 0]
    cp = np.take_along_axis(masked, idx_p[..., None], axis=2)[..., 0]
    usable = (best_idx > 0) & (best_idx < D - 1) & np.isfinite(cm) & np.isfinite(cp)
    with np.errstate(divide="ignore", invalid="ignore"):  # inf - inf where no d is in bounds
        denom = cm - 2.0 * c0 + cp
        offset = 0.5 * (cm - cp) / denom
    offset = np.where(usable & (denom > 1e-12), offset, 0.0)
    offset = np.clip(offset, -0.5, 0.5)

    disparity = (d_min + best_idx + offset).astype(np.float32)
    return disparity, valid, best_idx


def _unique(raw: np.ndarray, in_bounds: np.ndarray, best_idx: np.ndarray,
            ratio: float) -> np.ndarray:
    """Does the best raw competitor beyond best_idx +- 1 exceed best * ratio?"""
    masked = np.where(in_bounds, raw, np.float32(np.inf))
    idx = best_idx[..., None]
    best = np.take_along_axis(masked, idx, axis=2)[..., 0]
    near = np.clip(idx + np.array([-1, 0, 1]), 0, raw.shape[2] - 1)
    np.put_along_axis(masked, near, np.float32(np.inf), axis=2)
    second = masked.min(axis=2)
    return np.isfinite(second) & (second > best * ratio)


def reference_select(aggregated, params, right_aggregated) -> DisparityMap:
    """`select_disparity` over the whole volume at once, out-of-bounds cells inf in float32."""
    H, W, D = aggregated.costs.shape
    in_bounds = _in_bounds_mask(W, aggregated.d_min, D, aggregated.base)
    disparity, ok, best_idx = _wta(aggregated.costs, in_bounds, aggregated.d_min)
    flags = np.zeros((H, W), np.uint8)
    flags[~ok] |= FLAG_OUT_OF_RANGE

    unique_ok = _unique(aggregated.raw, in_bounds, best_idx, params.uniqueness_ratio)
    flags[ok & ~unique_ok] |= FLAG_UNIQUENESS_FAILED
    ok &= unique_ok

    r_in_bounds = _in_bounds_mask(W, right_aggregated.d_min, D, right_aggregated.base)
    d_right, r_valid, _ = _wta(right_aggregated.costs, r_in_bounds, right_aggregated.d_min)
    xr = np.rint(np.arange(W)[None, :] - disparity).astype(int)
    in_img = (xr >= 0) & (xr < W)
    xr_safe = np.clip(xr, 0, W - 1)
    r = np.arange(H)[:, None]
    lr_ok = (in_img & r_valid[r, xr_safe]
             & (np.abs(disparity - d_right[r, xr_safe]) <= params.lr_max_diff))
    flags[ok & ~lr_ok] |= FLAG_LR_FAILED
    ok &= lr_ok

    values = np.where(ok, disparity, np.float32(INVALID_DISPARITY))
    return DisparityMap(values=values, valid=ok, flags=flags)


def walk_voxels(start_voxel, end_voxel, start_point, direction, grid):
    """Integer voxel traversal from start to end (both included in the yield), one ray at a time."""
    v = np.array(start_voxel, dtype=np.int64)
    end = np.array(end_voxel, dtype=np.int64)
    step = np.sign(direction).astype(np.int64)
    t_max = np.full(3, np.inf)
    t_delta = np.full(3, np.inf)
    for i in range(3):
        if direction[i] != 0:
            boundary = (v[i] + (step[i] > 0)) * grid.voxel_size
            t_max[i] = (boundary - start_point[i]) / direction[i]
            t_delta[i] = grid.voxel_size / abs(direction[i])
    limit = int(np.sum(np.abs(end - v))) + 3
    for _ in range(limit):
        yield tuple(v)
        if np.array_equal(v, end):
            return
        axis = int(np.argmin(t_max))
        v[axis] += step[axis]
        t_max[axis] += t_delta[axis]
    yield tuple(end)


def _pack_rows(vox: np.ndarray, base: np.ndarray):
    """Packed keys of (N, 3) voxel indices, and the mask of those within the span."""
    off = vox - base + _HALF_SPAN
    ok = (off >= 0) & (off < 2 * _HALF_SPAN)
    keys = off[:, 0] << 2 * _AXIS_BITS
    keys += off[:, 1] << _AXIS_BITS
    keys += off[:, 2]
    return keys, ok[:, 0] & ok[:, 1] & ok[:, 2]


def reference_accumulate(grid: VoxelGrid, cloud: PointCloud) -> VoxelGrid:
    """Bin a cloud into the grid (counts, fixed-point position sums, color sums).

    A point adds rint(frac * 2**32), its offset from its voxel's corner in
    2**-32 voxel, to the position sums. Points are grouped by the inverse
    index of their unique keys; only the columns the cloud has are summed.
    Re-adding a cloud re-counts it. Raises ValueError, leaving the grid
    unchanged, when a point lies beyond the packable span around the base
    voxel or a voxel's sum would reach 2**53. Returns the grid.
    """
    if len(cloud) == 0:
        return grid
    scaled = cloud.positions / grid.voxel_size
    vox = np.floor(scaled)
    base = vox[0].astype(np.int64) if grid.n_voxels == 0 else grid._base
    keys, inside = _pack_rows(vox.astype(np.int64), base)
    if not inside.all():
        far = cloud.positions[np.argmin(inside)]
        raise ValueError(f"point {far.tolist()} lies beyond +-2**{_AXIS_BITS - 1} "
                         f"voxels of the grid's base voxel {base.tolist()}")

    new_keys, voxel, counts = np.unique(keys, return_inverse=True, return_counts=True)
    colored = cloud.color_valid.any()
    # each point's position fractions, then its color validity and valid colors if the
    # cloud has any, one contiguous column each for the per-column sums
    values = np.empty((7 if colored else 3, len(cloud))).T
    np.rint((scaled - vox) * 2.0 ** _FRACTION_BITS, out=values[:, :3])
    if colored:
        valid = cloud.color_valid
        values[:, 3] = valid
        np.multiply(cloud.colors, valid[:, None], out=values[:, 4:])
    k = 1 + values.shape[1]  # count and positions, then the color columns if the cloud has them
    rows = np.empty((len(new_keys), k), np.int64)
    rows[:, 0] = counts
    rows[:, 1:] = _group_sums(voxel, values, len(new_keys))
    pos, found = _lookup(grid._keys, new_keys)
    rows[found] += grid._table[pos[found], :k]
    if rows.max() >= _SUM_LIMIT:
        raise ValueError("a voxel's sums would reach 2**53")
    grid._base = base
    if not found.all():
        at = pos[~found]
        grid._keys = np.insert(grid._keys, at, new_keys[~found])
        grid._table = np.insert(grid._table, at, 0, axis=0)
        pos = np.searchsorted(grid._keys, new_keys)
    grid._table[pos, :k] = rows
    return grid


def reference_disparity_to_cloud(disp: DisparityMap, intrinsics: CameraIntrinsics,
                                 baseline: float, pose: Pose,
                                 color: np.ndarray = None) -> PointCloud:
    """Back-project a disparity map to a world-frame point cloud.

    Depth per valid pixel is Z = f * B / (d * pitch); pixels with disparity
    below 1e-3 px are skipped. The baseline must be positive and finite
    (ValueError otherwise). `color` is an optional (H, W, 3) raster of
    integers in [0, 255] (ValueError otherwise), sampled at the source pixel;
    without it every point is black and color-invalid.
    """
    if not 0 < baseline < np.inf:
        raise ValueError("baseline must be positive and finite")
    H, W = disp.values.shape
    if color is not None:
        color = np.asarray(color)
        if color.shape != (H, W, 3):
            raise ValueError(f"color must be an (H, W, 3) = ({H}, {W}, 3) raster, "
                             f"not {color.shape}")
    use = disp.valid & (disp.values > MIN_CLOUD_DISPARITY)
    ys, xs = np.nonzero(use)
    d = disp.values[ys, xs].astype(float)
    Z = intrinsics.focal_px * baseline / d

    norm = _pixels_to_normalized(intrinsics, np.stack([xs, ys], axis=1).astype(float))
    cam = np.column_stack([norm[:, 0] * Z, norm[:, 1] * Z, Z])
    world = cam @ pose.rotation().T + pose.t

    return PointCloud(positions=world, colors=None if color is None else color[ys, xs])
