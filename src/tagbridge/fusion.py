"""Voxel-based fusion of per-frame point clouds.

Every point cloud has one color layout: (N, 3) uint8 colors and an (N,)
bool validity mask, black and invalid where a point has no color. Clouds
accumulated along a trajectory are binned into a sparse voxel grid
held as columns: one sorted int64 key per occupied voxel and one int64 row
beside it, with its point count, fixed-point position sums (each point adds
its offset from its voxel's corner in units of 2**-32 voxel), colored count
and per-channel color sums. Every sum is an exact integer, so no centroid
depends on the order or chunking of the clouds. The grid keeps only this
per-voxel state, never the points themselves. Filtering removes voxels
with too few points; the survivors are emitted as one centroid per voxel,
colored with the rounded mean of its valid colors. An occlusion test that
walks every viewing ray through the grid at once guards color assignment
from a separate RGB camera: each ray carries its voxel's packed key and
steps it by adding one axis's key stride, its per-axis state held as (3, N)
rows; a hashed occupancy table lets only the rays whose slot is set reach
the exact lookup in the sorted keys, and rays that stop are masked out, then
dropped once they are the majority. No ray is tested before it can reach the
box of the occupied and the queried voxels. The rays' rows, flat views and
step buffers are bound once per compaction, so a step writes into them with
`out=` and builds no view. Binning and the walk keep voxel indices as
component-major (3, N) rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, Pose, _group_sums, project_points

_AXIS_BITS = 21  # per axis in a packed voxel key
_HALF_SPAN = 1 << (_AXIS_BITS - 1)  # offsets from the base voxel lie in [-2**20, 2**20)
_KEY_SHIFTS = np.array([2 * _AXIS_BITS, _AXIS_BITS, 0])  # bit offset of x, y, z in a key
_KEY_STRIDES = 1 << _KEY_SHIFTS  # key step per voxel on x, y, z
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # 2**64 over the golden ratio
_FRACTION_BITS = 32  # a position sum counts units of 2**-32 voxel
_SUM_LIMIT = 1 << 53  # voxel sums stay below, so float64 holds them exactly


@dataclass
class PointCloud:
    """World-frame points, each with an RGB color and whether that color is valid.

    `colors` is always (N, 3) uint8 and `color_valid` (N,) bool: a cloud
    built without colors is black and color-invalid everywhere.
    """

    positions: np.ndarray  # (N, 3) float64
    colors: np.ndarray = None  # (N, 3) uint8; zeros when not given
    color_valid: np.ndarray = None  # (N,) bool; all True when colors are given, else all False

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        self.positions = pos
        n = len(pos)
        if self.colors is None:
            if self.color_valid is not None:
                raise ValueError("color_valid given without colors")
            self.colors, self.color_valid = np.zeros((n, 3), np.uint8), np.zeros(n, bool)
            return
        colors = np.asarray(self.colors)
        if not np.all((colors >= 0) & (colors <= 255) & (colors == np.round(colors))):
            raise ValueError("colors must be integers in [0, 255]")
        self.colors = colors.astype(np.uint8, copy=False).reshape(n, 3)
        self.color_valid = (np.ones(n, dtype=bool) if self.color_valid is None
                            else np.asarray(self.color_valid, dtype=bool).reshape(n))

    def __len__(self):
        return len(self.positions)


@dataclass(eq=False)
class VoxelGrid:
    """Sparse accumulation grid; points on a boundary go to the higher-index voxel.

    One row per occupied voxel, rows sorted by `_keys`. A key packs the
    voxel's (x, y, z) indices, 21 bits per axis, as offsets from `_base`:
    the voxel of the first point that the first non-empty `accumulate` bins.
    Offsets in [-2**20, 2**20) pack, about +-52 km at 0.05 m voxels, so
    UTM-size coordinates fit. The span bounds every point the grid stores and
    every walk it answers (ValueError beyond it; `count` there is 0). Every
    offset adds the same shift, so key order is the lexicographic (x, y, z)
    order of the voxel indices.

    Beside the keys, `_table` holds one (V, 8) int64 row per voxel: the point
    count, the x, y and z sums of each point's offset from its voxel's corner
    in units of 2**-32 voxel, the number of points with valid RGB, and their
    per-channel color sums, all exact below 2**53.
    No accumulated cloud is kept: memory follows the voxels, not the points.
    """

    voxel_size: float

    def __post_init__(self):
        if not 0 < self.voxel_size < np.inf:
            raise ValueError("voxel size must be positive and finite")
        self._base = np.zeros(3, np.int64)  # until the first non-empty accumulate fixes it
        self._keys = np.zeros(0, np.int64)
        self._table = np.zeros((0, 8), np.int64)

    def voxel_indices(self, points: np.ndarray) -> np.ndarray:
        return np.floor(np.asarray(points, dtype=float) / self.voxel_size).astype(np.int64)

    def count(self, key) -> int:
        keys, inside = _pack(np.asarray(key, dtype=np.int64).reshape(3, 1), self._base)
        pos, found = _lookup(self._keys, keys)
        return int(self._table[pos[0], 0]) if inside[0] and found[0] else 0

    @property
    def n_voxels(self) -> int:
        return len(self._keys)

    @property
    def n_points(self) -> int:
        return int(self._table[:, 0].sum())


def _pack(vox: np.ndarray, base: np.ndarray):
    """Packed keys of (3, N) voxel indices, and the mask of those within the span.

    A key is the dot product of the offsets with `_KEY_STRIDES` (mod 2**64),
    added up as shifts, so a step of one voxel along an axis adds that axis's
    stride. Keys outside the span alias keys inside it, so `accumulate` and
    the occlusion walk reject such voxels and `count` masks them out.
    """
    x, y, z = off = vox - base[:, None] + _HALF_SPAN
    ok = (off >= 0) & (off < 2 * _HALF_SPAN)
    keys = x << 2 * _AXIS_BITS
    keys += y << _AXIS_BITS
    keys += z
    return keys, ok[0] & ok[1] & ok[2]


def _unpack(keys: np.ndarray, base: np.ndarray) -> np.ndarray:
    """(3, N) voxel indices of packed keys: the inverse of `_pack` within the span."""
    return (keys >> _KEY_SHIFTS[:, None] & 2 * _HALF_SPAN - 1) - _HALF_SPAN + base[:, None]


def _bounds(keys: np.ndarray, base: np.ndarray) -> np.ndarray:
    """(3, 2) least and greatest voxel index per axis of sorted, non-empty packed keys.

    Keys sort by x first, so x's bounds are those of the first and last key;
    y and z each take one masked pass over the keys.
    """
    bounds = [keys[[0, -1]] >> _KEY_SHIFTS[0]]
    field = np.empty_like(keys)
    for shift in _KEY_SHIFTS[1:]:
        np.bitwise_and(keys, 2 * _HALF_SPAN - 1 << shift, out=field)
        bounds.append(np.array([field.min(), field.max()]) >> shift)
    return np.array(bounds) - _HALF_SPAN + base[:, None]


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """Insertion position of each key in sorted_keys, and whether it is there."""
    pos = np.searchsorted(sorted_keys, keys)
    if len(sorted_keys) == 0:
        return pos, np.zeros(len(keys), dtype=bool)
    return pos, sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == keys


def accumulate(grid: VoxelGrid, cloud: PointCloud) -> VoxelGrid:
    """Bin a cloud into the grid (counts, fixed-point position sums, color sums).

    A point adds rint(frac * 2**32), its offset from its voxel's corner in
    2**-32 voxel, to the position sums. Points are grouped by the inverse
    index of their unique keys; only the columns the cloud has are summed,
    each held as one contiguous row of a (k, N) array, as the positions are.
    Re-adding a cloud re-counts it. Raises ValueError, leaving the grid
    unchanged, when a point lies beyond the packable span around the base
    voxel or a voxel's sum would reach 2**53. Returns the grid.
    """
    if len(cloud) == 0:
        return grid
    # component-major (3, N) rows, so every pass below reads contiguous memory
    scaled = np.divide(cloud.positions.T, grid.voxel_size, order="C")
    vox = np.floor(scaled)
    base = vox[:, 0].astype(np.int64) if grid.n_voxels == 0 else grid._base
    keys, inside = _pack(vox.astype(np.int64), base)
    if not inside.all():
        far = cloud.positions[np.argmin(inside)]
        raise ValueError(f"point {far.tolist()} lies beyond +-2**{_AXIS_BITS - 1} "
                         f"voxels of the grid's base voxel {base.tolist()}")

    new_keys, voxel, counts = np.unique(keys, return_inverse=True, return_counts=True)
    colored = cloud.color_valid.any()
    # one row per summed column: each point's position fractions, then its color
    # validity and valid colors if the cloud has any
    values = np.empty((7 if colored else 3, len(cloud)))
    frac = values[:3]
    np.subtract(scaled, vox, out=frac)
    frac *= 2.0 ** _FRACTION_BITS
    np.rint(frac, out=frac)
    if colored:
        valid = cloud.color_valid
        values[3] = valid
        np.multiply(cloud.colors.T, valid, out=values[4:])
    k = 1 + len(values)  # count and positions, then the color columns if the cloud has them
    rows = np.empty((len(new_keys), k), np.int64)
    rows[:, 0] = counts
    rows[:, 1:] = _group_sums(voxel, values.T, len(new_keys))
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


def filter_voxels(grid: VoxelGrid, min_points: int) -> PointCloud:
    """One centroid per surviving voxel, in lexicographic voxel-index order.

    Voxels with fewer than min_points points are removed; colorless voxels
    survive black and color-invalid. A centroid, (voxel index + sum / count
    * 2**-32) * voxel_size, lies within 2**-32 voxel of its points' mean plus
    float64 rounding. A colored voxel gets the mean of its valid colors per
    channel, rounded to nearest with halves up; neither depends on the order
    or chunking of the clouds. Raises ValueError unless min_points >= 1.
    """
    if not min_points >= 1:
        raise ValueError("min_points must be at least 1")

    rows = np.flatnonzero(grid._table[:, 0] >= min_points)
    count, sums, n, colors = np.split(grid._table[rows], [1, 4, 5], axis=1)
    positions = (_unpack(grid._keys[rows], grid._base).T
                 + sums / count * 2.0 ** -_FRACTION_BITS) * grid.voxel_size
    colors += n // 2  # rounded half up in place; colorless voxels get black
    colors //= np.maximum(n, 1)
    return PointCloud(positions=positions, colors=colors.astype(np.uint8), color_valid=n[:, 0] > 0)


def _occupancy_table(keys: np.ndarray):
    """(shift, table): one bool per slot of `_slots(key, shift)`, set where a key lies.

    The table has 2**bits >= 8 len(keys) slots, so at most one in eight is
    set and it takes at most twice the bytes of the int64 keys (voxel
    hashing: Niessner et al., "Real-time 3D reconstruction at scale using
    voxel hashing", TOG 2013).
    """
    bits = (8 * len(keys) - 1).bit_length()
    shift = np.uint64(64 - bits)
    table = np.zeros(1 << bits, dtype=bool)
    table[_slots(keys, shift)] = True
    return shift, table


def _slots(keys: np.ndarray, shift: np.uint64) -> np.ndarray:
    """Multiplicative hash: the top 64 - shift bits of key * _HASH_MULTIPLIER mod 2**64."""
    return (keys.view(np.uint64) * _HASH_MULTIPLIER) >> shift


def _occluded(grid: VoxelGrid, start_point: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Whether a voxel of the grid lies on each segment from start_point to a point.

    `accumulate` adds no empty voxel, so every voxel of the grid occludes.
    All rays step together through the grid (Amanatides & Woo, "A Fast Voxel
    Traversal Algorithm", 1987) with the arithmetic of the one-ray walk in
    `tests/oracles.py`, so each visits the same voxels in the same order.

    The ray state is component-major: `t_max`, `t_delta` and the key step per
    voxel are (3, N), one row per axis. A step picks each ray's axis with two
    comparisons that keep argmin's first-minimum tie rule and updates `t_max`
    and the key at that one flat cell. Each ray holds its voxel's packed key,
    so the arrival and occupancy tests compare one int64 per ray, and two
    voxels inside the span have equal keys only if they are the same voxel.
    Every step moves a ray one voxel further, never back, so no ray is in the
    camera's voxel after the first.

    A step moves a ray one voxel along one axis, so no ray enters the box of
    every occupied voxel and every query point's voxel before step d, the L1
    distance from the camera's voxel to that box, and every limit exceeds d:
    the steps before d (the approach phase) skip the arrival, occupancy and
    limit tests.

    Occupancy is read from the hashed table of `_occupancy_table` first: only
    the active rays whose key's slot is set are looked up in the sorted keys,
    which confirms them exactly. A ray that stops drops out of `active`, steps
    on, masked out of every hit, until fewer than half the rays are active
    and the arrays are compacted; the rays that start in their point's voxel
    are dropped before the first step. Each compaction binds the rows, flat
    views and buffers that the steps until the next one read and write with
    `out=`. Raises ValueError when a walk could leave the span (the start
    voxel +- the longest limit lies outside it on an axis), so every key a
    walk compares is exact.
    """
    occluded = np.zeros(len(points), dtype=bool)
    if grid.n_voxels == 0 or len(points) == 0:
        return occluded
    start = grid.voxel_indices(start_point[:, None])  # (3, 1)
    end = grid.voxel_indices(points.T)  # (3, N)
    direction = (points - start_point).T.copy()  # (3, N), C-contiguous like every state array
    step = np.sign(direction).astype(np.int64)
    moving = direction != 0
    boundary = (start + (step > 0)) * grid.voxel_size
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = np.where(moving, (boundary - start_point[:, None]) / direction, np.inf)
        t_delta = np.where(moving, grid.voxel_size / np.abs(direction), np.inf)
    limit = np.abs(end - start).sum(axis=0) + 3

    (start_key,), _ = _pack(start, grid._base)
    end_key, _ = _pack(end, grid._base)
    key_step = step * _KEY_STRIDES[:, None]
    corners = start + np.array([-1, 1]) * limit.max()  # of a box holding every walk
    if not _pack(corners, grid._base)[1].all():
        raise ValueError(f"a walk from voxel {start[:, 0].tolist()} could leave the packable span")
    # the approach phase: steps before any ray can enter the box of the occupied
    # and the query voxels
    occupied = _bounds(grid._keys, grid._base)
    lo = np.minimum(occupied[:, 0], end.min(axis=1)) - start[:, 0]
    hi = np.maximum(occupied[:, 1], end.max(axis=1)) - start[:, 0]
    approach = np.maximum(np.maximum(lo, -hi), 0).sum()
    shift, table = _occupancy_table(grid._keys)
    state = (np.arange(len(points)), np.full(len(points), start_key), end_key, limit, t_max,
             t_delta, key_step)
    active = end_key != start_key
    taken = n = 0
    while n_active := np.count_nonzero(active):
        if 2 * n_active < len(active) or not n:  # inactive rays step on, masked out, until here
            state = tuple(a.compress(active, axis=-1) for a in state)  # C-contiguous
            rays, key, end_key, limit, t_max, t_delta, key_step = state
            n = n_active
            active = np.ones(n, dtype=bool)
            # rows, flat views and step buffers of these rays, bound until the next compaction
            t0, t1, t2 = t_max
            lane0, lane1, lane2 = np.arange(3 * n).reshape(3, -1)  # each ray's flat cell per axis
            t_flat, delta_flat = t_max.reshape(-1), t_delta.reshape(-1)
            step_flat, key_bits = key_step.reshape(-1), key.view(np.uint64)
            low, hashed = np.empty(n), np.empty(n, np.uint64)
            slot = hashed.view(np.int64)  # the slot of `_slots`, below 2**63
            on_y, on_z, maybe = (np.empty(n, dtype=bool) for _ in range(3))
        np.minimum(t0, t1, out=low)  # ties go to the lowest axis
        np.less(t2, low, out=on_z)
        np.less(t1, t0, out=on_y)
        cell = np.where(on_z, lane2, np.where(on_y, lane1, lane0))
        t_flat[cell] += delta_flat[cell]
        key += step_flat[cell]
        taken += 1
        if taken < approach:  # every ray is still outside the box
            continue
        active &= np.not_equal(key, end_key, out=on_y)
        np.multiply(key_bits, _HASH_MULTIPLIER, out=hashed)
        np.right_shift(hashed, shift, out=hashed)
        np.logical_and(table.take(slot, out=maybe, mode="clip"), active, out=maybe)
        if maybe.any():
            hit = np.flatnonzero(maybe)
            hit = hit[_lookup(grid._keys, key[hit])[1]]
            occluded[rays[hit]] = True
            active[hit] = False
        active &= np.less(taken + 1, limit, out=on_z)
    return occluded


def colorize_with_occlusion(cloud: PointCloud, grid: VoxelGrid, rgb: np.ndarray,
                            intrinsics: CameraIntrinsics, rgb_pose: Pose) -> PointCloud:
    """Assign RGB to points visible from the color camera.

    A point is colored only when no voxel of the grid (each holds at least
    one point) lies strictly between the camera and the point's own voxel
    along the viewing ray; the camera's voxel and the point's own voxel never
    count as occluders. The returned cloud has the input's positions; points
    outside the frustum, behind the camera or occluded are black and
    color-invalid.

    Every candidate ray starts in the camera's voxel and steps into the
    neighbour across the nearest voxel boundary; where boundaries tie (the
    ray crosses a voxel edge or corner), the lowest axis (x, then y, then z)
    steps first. A ray checks at most |dx| + |dy| + |dz| + 3 voxels, the
    camera's own included, where (dx, dy, dz) is the index difference between
    the point's voxel and the camera's; a ray that has not reached its
    point's voxel by then stops, and its point counts as visible. A walk
    that could leave the grid's packable span raises ValueError, as a point
    beyond it does in `accumulate`. Sampled pixels are checked as PointCloud
    colours (ValueError unless bytes).
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("rgb must be an (H, W, 3) raster")
    H, W = rgb.shape[:2]

    pixels, in_front = project_points(intrinsics, rgb_pose, cloud.positions)
    pixels = np.nan_to_num(pixels, nan=-1.0)  # behind-camera pixels are masked below
    cols = np.round(pixels[:, 0]).astype(int)
    rows = np.round(pixels[:, 1]).astype(int)
    candidates = np.flatnonzero(in_front & (cols >= 0) & (cols < W) & (rows >= 0) & (rows < H))
    visible = candidates[~_occluded(grid, rgb_pose.t, cloud.positions[candidates])]

    n = len(cloud)
    colors = np.zeros((n, 3), dtype=rgb.dtype)
    valid = np.zeros(n, dtype=bool)
    colors[visible] = rgb[rows[visible], cols[visible]]
    valid[visible] = True
    return PointCloud(positions=cloud.positions.copy(), colors=colors, color_valid=valid)
