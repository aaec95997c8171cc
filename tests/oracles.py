"""Slow, direct reference implementations that the fast library paths are tested against.

- `numeric_jacobian`: central differences, for the closed-form bundle
  Jacobian blocks;
- `path_step` and `aggregate_one_path`: one SGM path at a time in float32,
  for the disparity-major uint16 sweeps of `aggregate_costs`;
- `walk_voxels`: one voxel walk per ray, for the batched walk of
  `fusion._occluded`.
"""

import numpy as np

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
