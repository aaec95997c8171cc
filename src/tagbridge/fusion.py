"""Voxel-based fusion of per-frame point clouds.

Clouds accumulated along a trajectory are binned into a sparse voxel grid
held as columns: one sorted int64 key per occupied voxel, with its point
count, compensated position sum, colored count and per-channel color sums
beside it. The grid keeps only this per-voxel state, never the points
themselves. Filtering removes voxels by occupancy and by the fraction of
points carrying RGB; the survivors are emitted as one centroid per voxel,
colored with the rounded mean of its valid colors. An occlusion test that walks
every viewing ray through the grid at once guards color assignment from a
separate RGB camera.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, Pose, project_points

logger = logging.getLogger(__name__)

DEFAULT_VOXEL_SIZE = 0.1
DEFAULT_OCCLUSION_THRESHOLD = 1

_AXIS_BITS = 21  # per axis in a packed voxel key
_HALF_SPAN = 1 << (_AXIS_BITS - 1)  # offsets from the base voxel lie in [-2**20, 2**20)


@dataclass
class PointCloud:
    """World-frame points with optional per-point color."""

    positions: np.ndarray  # (N, 3) float64
    colors: np.ndarray = None  # (N, 3) uint8 or None
    color_valid: np.ndarray = None  # (N,) bool; defaults to all True when colored

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        self.positions = pos
        n = len(pos)
        if self.colors is not None:
            self.colors = np.asarray(self.colors, dtype=np.uint8).reshape(n, 3)
            if self.color_valid is None:
                self.color_valid = np.ones(n, dtype=bool)
            else:
                self.color_valid = np.asarray(self.color_valid, dtype=bool).reshape(n)
        elif self.color_valid is not None:
            raise ValueError("color_valid given without colors")

    def __len__(self):
        return len(self.positions)


@dataclass
class VoxelGrid:
    """Sparse accumulation grid; points on a boundary go to the higher-index voxel.

    One row per occupied voxel, rows sorted by `_keys`. A key packs the
    voxel's (x, y, z) indices, 21 bits per axis, as offsets from `_base`:
    the voxel of the first point that the first non-empty `accumulate` bins.
    Offsets in [-2**20, 2**20) pack, about +-52 km at 0.05 m voxels, so
    UTM-size coordinates fit; `accumulate` raises ValueError for a point
    beyond that span. The offset is the same on every axis of every voxel,
    so key order is the lexicographic (x, y, z) order of the voxel indices.

    Beside the keys: `_count`, the Kahan sum `_csum` and its compensation
    `_comp` ((V, 3) each), `_colored`, the number of points with valid
    RGB, and `_rgb`, their exact (V, 3) int64 per-channel sums. No
    accumulated cloud is kept: memory follows the voxels, not the points.
    """

    voxel_size: float = DEFAULT_VOXEL_SIZE

    def __post_init__(self):
        if not 0 < self.voxel_size < np.inf:
            raise ValueError("voxel size must be positive and finite")
        self._base = None  # (3,) int64, fixed by the first non-empty accumulate
        self._keys = np.zeros(0, np.int64)
        self._count = np.zeros(0, np.int64)
        self._csum = np.zeros((0, 3))
        self._comp = np.zeros((0, 3))
        self._colored = np.zeros(0, np.int64)
        self._rgb = np.zeros((0, 3), np.int64)

    def voxel_indices(self, points: np.ndarray) -> np.ndarray:
        return np.floor(np.asarray(points, dtype=float) / self.voxel_size).astype(np.int64)

    def count(self, key) -> int:
        if self._base is None:
            return 0
        keys, inside = _pack(np.asarray(key, dtype=np.int64).reshape(1, 3), self._base)
        pos, found = _lookup(self._keys, keys)
        return int(self._count[pos[0]]) if inside[0] and found[0] else 0

    @property
    def n_voxels(self) -> int:
        return len(self._keys)

    @property
    def n_points(self) -> int:
        return int(self._count.sum())


def _pack(vox: np.ndarray, base: np.ndarray):
    """Packed keys of (N, 3) voxel indices, and the mask of those within the span.

    Keys outside the span are meaningless; callers mask them out or reject them.
    """
    off = vox - base + _HALF_SPAN
    inside = np.all((off >= 0) & (off < 2 * _HALF_SPAN), axis=1)
    keys = (off[:, 0] << 2 * _AXIS_BITS) | (off[:, 1] << _AXIS_BITS) | off[:, 2]
    return keys, inside


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """Insertion position of each key in sorted_keys, and whether it is there."""
    pos = np.searchsorted(sorted_keys, keys)
    found = np.zeros(len(keys), dtype=bool)
    within = pos < len(sorted_keys)
    found[within] = sorted_keys[pos[within]] == keys[within]
    return pos, found


def _runs(values: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in a sorted, non-empty 1-D array."""
    return np.flatnonzero(np.append(True, values[1:] != values[:-1]))


def _run_sums(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each run of rows, added in row order like `values[s:e].sum(axis=0)`.

    `np.add.reduceat` adds in another order, which moves centroids in the
    last bits; centroids of a regular pixel grid project onto pixel-rounding
    ties, so those bits would change which pixel colors a point.
    """
    sums = values[starts]
    by_size = np.argsort(-counts, kind="stable")
    alive = np.searchsorted(-counts[by_size], -np.arange(1, counts.max()), side="left")
    for rank, n_runs in enumerate(alive, start=1):
        runs = by_size[:n_runs]  # the runs longer than rank
        sums[runs] += values[starts[runs] + rank]
    return sums


def accumulate(grid: VoxelGrid, cloud: PointCloud) -> VoxelGrid:
    """Bin a cloud into the grid (counts, position sums, color sums).

    Re-adding the same cloud re-counts it. Raises ValueError, leaving the
    grid unchanged, when a point lies beyond the packable span around the
    grid's base voxel. Returns the (mutated) grid.
    """
    if len(cloud) == 0:
        return grid
    vox = grid.voxel_indices(cloud.positions)
    base = vox[0].copy() if grid._base is None else grid._base
    keys, inside = _pack(vox, base)
    if not inside.all():
        far = cloud.positions[np.argmin(inside)]
        raise ValueError(f"point {far.tolist()} lies beyond +-2**{_AXIS_BITS - 1} "
                         f"voxels of the grid's base voxel {base.tolist()}")
    grid._base = base

    order = np.argsort(keys, kind="stable")
    starts = _runs(keys[order])
    new_keys = keys[order[starts]]
    pos, found = _lookup(grid._keys, new_keys)
    if not found.all():
        at = pos[~found]
        grid._keys = np.insert(grid._keys, at, new_keys[~found])
        grid._count = np.insert(grid._count, at, 0)
        grid._csum = np.insert(grid._csum, at, 0.0, axis=0)
        grid._comp = np.insert(grid._comp, at, 0.0, axis=0)
        grid._colored = np.insert(grid._colored, at, 0)
        grid._rgb = np.insert(grid._rgb, at, 0, axis=0)
        pos = np.searchsorted(grid._keys, new_keys)

    counts = np.diff(np.append(starts, len(keys)))
    grid._count[pos] += counts
    # Kahan step keeps centroids permutation-invariant to ~1e-14
    y = _run_sums(cloud.positions[order], starts, counts) - grid._comp[pos]
    t = grid._csum[pos] + y
    grid._comp[pos] = (t - grid._csum[pos]) - y
    grid._csum[pos] = t

    if cloud.colors is not None and cloud.color_valid.any():
        valid = cloud.color_valid[order]
        grid._colored[pos] += np.add.reduceat(valid.astype(np.int64), starts)
        grid._rgb[pos] += np.add.reduceat(cloud.colors[order] * valid[:, None], starts,
                                          dtype=np.int64)
    return grid


def filter_voxels(grid: VoxelGrid, min_points: int,
                  min_rgb_fraction: float = 0.0) -> PointCloud:
    """One centroid per surviving voxel, in lexicographic voxel-index order.

    Voxels with fewer than min_points points are removed. With
    min_rgb_fraction > 0, voxels whose colored fraction falls below it are
    removed too; with min_rgb_fraction = 0, colorless voxels survive as
    geometry-only centroids. A colored voxel gets the mean of its valid
    colors per channel, rounded to nearest with halves up; the sums are exact
    integers, so the color does not depend on the order or chunking of the
    accumulated clouds. Raises ValueError unless min_points >= 1.
    """
    if not min_points >= 1:
        raise ValueError("min_points must be at least 1")
    if not 0.0 <= min_rgb_fraction <= 1.0:
        raise ValueError("min_rgb_fraction must be in [0, 1]")

    keep = grid._count >= min_points
    if min_rgb_fraction > 0.0:
        keep &= grid._colored / grid._count >= min_rgb_fraction
    if not keep.any():
        return PointCloud(positions=np.zeros((0, 3)))
    positions = (grid._csum[keep] + grid._comp[keep]) / grid._count[keep, None]
    n = grid._colored[keep, None]
    valid = n[:, 0] > 0
    if not valid.any():
        return PointCloud(positions=positions)
    # floor((sum + n/2) / n); voxels without color have sum 0 and get black
    colors = (2 * grid._rgb[keep] + n) // (2 * np.maximum(n, 1))
    return PointCloud(positions=positions, colors=colors.astype(np.uint8), color_valid=valid)


def _occluded(grid: VoxelGrid, start_point: np.ndarray, points: np.ndarray,
              threshold: int) -> np.ndarray:
    """Whether an occupied voxel lies on each segment from start_point to a point.

    All rays step together through the grid (Amanatides & Woo, "A Fast Voxel
    Traversal Algorithm", 1987) with the arithmetic of the one-ray walk in
    `tests/oracles.py`, so each visits the same voxels in the same order.
    """
    occupied = grid._keys[grid._count >= threshold]
    occluded = np.zeros(len(points), dtype=bool)
    if len(occupied) == 0:
        return occluded
    start = grid.voxel_indices(start_point[None, :])
    end = grid.voxel_indices(points)
    direction = points - start_point
    step = np.sign(direction).astype(np.int64)
    moving = direction != 0
    boundary = (start + (step > 0)) * grid.voxel_size
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = np.where(moving, (boundary - start_point) / direction, np.inf)
        t_delta = np.where(moving, grid.voxel_size / np.abs(direction), np.inf)
    limit = np.abs(end - start).sum(axis=1) + 3

    rays = np.arange(len(points))
    v = np.repeat(start, len(points), axis=0)
    taken = 0
    while len(rays):
        arrived = np.all(v == end, axis=1)
        keys, inside = _pack(v, grid._base)
        _, hit = _lookup(occupied, keys)
        hit &= inside & ~arrived & ~np.all(v == start, axis=1)
        occluded[rays[hit]] = True
        go = ~(arrived | hit) & (taken + 1 < limit)
        rays, v, end, step, t_max, t_delta, limit = (
            a[go] for a in (rays, v, end, step, t_max, t_delta, limit))
        r = np.arange(len(rays))
        axis = np.argmin(t_max, axis=1)  # ties go to the lowest axis
        v[r, axis] += step[r, axis]
        t_max[r, axis] += t_delta[r, axis]
        taken += 1
    return occluded


def colorize_with_occlusion(cloud: PointCloud, grid: VoxelGrid, rgb: np.ndarray,
                            intrinsics: CameraIntrinsics, rgb_pose: Pose,
                            occlusion_threshold: int = DEFAULT_OCCLUSION_THRESHOLD,
                            ) -> PointCloud:
    """Assign RGB to points visible from the color camera.

    A point is colored only when no occupied voxel (count >= threshold) lies
    strictly between the camera and the point's own voxel along the viewing
    ray; the camera's voxel and the point's own voxel never count as
    occluders. Points outside the frustum or behind the camera stay uncolored.

    Every candidate ray starts in the camera's voxel and steps into the
    neighbour across the nearest voxel boundary; where boundaries tie (the
    ray crosses a voxel edge or corner), the lowest axis (x, then y, then z)
    steps first. A ray checks at most |dx| + |dy| + |dz| + 3 voxels, the
    camera's own included, where (dx, dy, dz) is the index difference between
    the point's voxel and the camera's; a ray that has not reached its
    point's voxel by then stops, and its point counts as visible. Voxels
    beyond the packable span around the grid's base are empty.
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("rgb must be an (H, W, 3) raster")
    if not occlusion_threshold >= 1:
        raise ValueError("occlusion_threshold must be at least 1")
    H, W = rgb.shape[:2]

    pixels, in_front = project_points(intrinsics, rgb_pose, cloud.positions)
    pixels = np.nan_to_num(pixels, nan=-1.0)  # behind-camera pixels are masked below
    cols = np.round(pixels[:, 0]).astype(int)
    rows = np.round(pixels[:, 1]).astype(int)
    candidates = np.flatnonzero(in_front & (cols >= 0) & (cols < W) & (rows >= 0) & (rows < H))
    visible = candidates[~_occluded(grid, rgb_pose.t, cloud.positions[candidates],
                                    occlusion_threshold)]

    if len(visible) == 0:
        return PointCloud(positions=cloud.positions.copy())
    n = len(cloud)
    colors = np.zeros((n, 3), dtype=np.uint8)
    valid = np.zeros(n, dtype=bool)
    colors[visible] = rgb[rows[visible], cols[visible]]
    valid[visible] = True
    return PointCloud(positions=cloud.positions.copy(), colors=colors, color_valid=valid)
