"""Semi-global matching on rectified stereo pairs.

Pipeline: census transform -> Hamming cost volume -> path-wise cost
aggregation with P1/P2 smoothness penalties -> winner-take-all disparity
selection with subpixel refinement, uniqueness and left-right checks ->
optional conversion of the disparity map to a 3D point cloud.

Matching cost is census + Hamming: deterministic, offset-invariant, and
checkable against small exhaustive oracles. Costs are small unsigned
integers bounded by the census bit count. Aggregated costs are uint16 and
exact: with integer P1 and P2 a path value is at most max(C) + P2, so the
n-path sum is at most n * (max(C) + P2), 1 152 for a 5x5 census at the
defaults; `aggregate_costs` rejects volumes whose bound exceeds 65 535.

Volumes are (H, W, D), but the aggregation sweeps step disparity-major
(paths, D, line length) states: the minimum over d and the +-1 disparity
neighbours then combine contiguous rows. Each step copies the image line
its paths read into a line-sized (D, length) buffer once and adds the
paths' sum back through its transpose, so no volume-sized copy is made.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ImageTooSmall
from .fusion import PointCloud
from .geometry import CameraIntrinsics, Pose, _pixels_to_normalized

INVALID_DISPARITY = -1.0
MIN_CLOUD_DISPARITY = 1e-3

FLAG_LR_FAILED = 1
FLAG_UNIQUENESS_FAILED = 2
FLAG_OUT_OF_RANGE = 4

# Path direction sets, in fixed aggregation (and summation) order.
PATHS_4 = ((0, 1), (0, -1), (1, 0), (-1, 0))
PATHS_8 = PATHS_4 + ((1, 1), (1, -1), (-1, 1), (-1, -1))

# Rows per block in matching_cost_volume: its plane-major (D, rows, W) buffer
# stays small while each block is stored with one transposing copy.
COST_BLOCK_ROWS = 32
# Rows per block in select_disparity: its float32 temporaries are a few
# (SELECT_BLOCK_ROWS, W, D) slabs, whatever the image height.
SELECT_BLOCK_ROWS = 16
UINT16_MAX = np.iinfo(np.uint16).max


@dataclass(frozen=True)
class SgmParams:
    d_min: int
    d_max: int
    p1: float = 10.0
    p2: float = 120.0
    n_paths: int = 8
    census_window: tuple = (5, 5)
    lr_max_diff: float = 1.0
    uniqueness_ratio: float = 1.05

    def __post_init__(self):
        # integer types, not integer-valued floats: they size arrays and bound ranges
        if not all(isinstance(v, numbers.Integral)
                   for v in (self.d_min, self.d_max, *self.census_window)):
            raise ValueError("d_min, d_max and census window sizes must be integers")
        if self.d_min >= self.d_max:
            raise ValueError("d_min must be < d_max")
        if not (0 < self.p1 < self.p2):
            raise ValueError("penalties must satisfy 0 < P1 < P2")
        if not (float(self.p1).is_integer() and float(self.p2).is_integer()):
            raise ValueError("penalties P1 and P2 must be integer-valued")
        if self.n_paths not in (4, 8):
            raise ValueError("n_paths must be 4 or 8")
        h, w = self.census_window
        if h % 2 == 0 or w % 2 == 0:
            raise ValueError("census window must be odd in both dimensions")
        if not self.lr_max_diff > 0:
            raise ValueError("lr_max_diff must be positive")
        if not 1.0 <= self.uniqueness_ratio < np.inf:
            raise ValueError("uniqueness_ratio must be finite and >= 1")

    @property
    def directions(self):
        return PATHS_4 if self.n_paths == 4 else PATHS_8


@dataclass
class CostVolume:
    """Per-pixel, per-disparity matching costs C(x, y, d), d = d_min..d_max.

    `costs` is uint16, both for matching costs and for the path sums that
    `aggregate_costs` returns. `base` records which image the volume is
    anchored to ("left": matches at x - d in the other image; "right":
    matches at x + d). `max_cost` is the census bit count, also used for
    out-of-bounds cells. After aggregation, `raw` keeps the pre-aggregation
    matching costs: the uniqueness test runs on them, because path
    accumulation seeds a spurious unique minimum from the out-of-bounds
    border wedge even when every true matching cost ties (textureless
    input).
    """

    costs: np.ndarray  # (H, W, D)
    d_min: int
    d_max: int
    max_cost: int
    base: str = "left"
    raw: np.ndarray = None


@dataclass
class DisparityMap:
    """Fractional disparities with validity and provenance flags.

    Invalid pixels hold INVALID_DISPARITY in `values`; `flags` carries the
    bitwise reason (FLAG_LR_FAILED | FLAG_UNIQUENESS_FAILED | FLAG_OUT_OF_RANGE).
    """

    values: np.ndarray  # (H, W) float32
    valid: np.ndarray  # (H, W) bool
    flags: np.ndarray  # (H, W) uint8


def census_transform(image: np.ndarray, window=(5, 5)) -> np.ndarray:
    """Census descriptor raster: bit i set iff neighbor i < center.

    Neighbors are enumerated in row-major order over the window with the
    center excluded; borders use edge-clamped neighborhoods. Returns an
    (H, W, n_words) uint64 raster (LSB-first packing within each word).
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("image must be 2-D grayscale")
    wh, ww = window
    if wh % 2 == 0 or ww % 2 == 0:
        raise ValueError("census window must be odd in both dimensions")
    H, W = image.shape
    if H < wh or W < ww:
        raise ImageTooSmall(f"{W}x{H} image with {ww}x{wh} census window")

    ph, pw = wh // 2, ww // 2
    padded = np.pad(image, ((ph, ph), (pw, pw)), mode="edge")
    n_bits = wh * ww - 1
    n_words = (n_bits + 63) // 64
    desc = np.zeros((H, W, n_words), dtype=np.uint64)

    bit = 0
    for dy in range(-ph, ph + 1):
        for dx in range(-pw, pw + 1):
            if dy == 0 and dx == 0:
                continue
            neighbor = padded[ph + dy:ph + dy + H, pw + dx:pw + dx + W]
            mask = neighbor < image
            word, offset = divmod(bit, 64)
            desc[:, :, word] |= mask.astype(np.uint64) << np.uint64(offset)
            bit += 1
    return desc


def hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel Hamming distance between two census rasters."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"descriptor shapes differ: {a.shape} vs {b.shape}")
    return np.bitwise_count(np.bitwise_xor(a, b)).sum(axis=-1, dtype=np.uint16)


def census_bits(window=(5, 5)) -> int:
    return window[0] * window[1] - 1


def matching_cost_volume(base_desc: np.ndarray, match_desc: np.ndarray,
                         d_min: int, d_max: int, max_cost: int = None,
                         base: str = "left") -> CostVolume:
    """Hamming cost volume C(x, y, d) = dist(base(x, y), match(x -+ d, y)).

    The match pixel is x - d for a left base and x + d for a right base;
    out-of-bounds matches get `max_cost` (defaults to the descriptor word
    bit capacity if not given).
    """
    if base_desc.shape != match_desc.shape:
        raise DimensionMismatch(
            f"raster shapes differ: {base_desc.shape} vs {match_desc.shape}")
    if d_min >= d_max:
        raise ValueError("d_min must be < d_max")
    if base not in ("left", "right"):
        raise ValueError("base must be 'left' or 'right'")
    if max_cost is None:
        max_cost = 64 * base_desc.shape[-1]

    H, W = base_desc.shape[:2]
    D = d_max - d_min + 1
    costs = np.empty((H, W, D), dtype=np.uint16)
    sign = 1 if base == "left" else -1
    # fill each block of rows plane by plane, then store it transposed at once;
    # every block writes the same in-bounds columns, so the rest stay max_cost
    buf = np.full((D, COST_BLOCK_ROWS, W), max_cost, dtype=np.uint16)
    for r0 in range(0, H, COST_BLOCK_ROWS):
        r1 = min(r0 + COST_BLOCK_ROWS, H)
        block = buf[:, :r1 - r0]
        for i, d in enumerate(range(d_min, d_max + 1)):
            shift = sign * d  # match pixel is x - shift
            lo = max(0, shift)
            hi = min(W, W + shift)
            if lo >= hi:
                continue
            block[i, :, lo:hi] = hamming_distance(
                base_desc[r0:r1, lo:hi], match_desc[r0:r1, lo - shift:hi - shift])
        costs[r0:r1] = block.transpose(1, 2, 0)
    return CostVolume(costs=costs, d_min=d_min, d_max=d_max, max_cost=max_cost, base=base)


class _PathStep:
    """min(prev[d], prev[d+-1]+P1, min_k prev[k]+P2) - min_k prev[k] on (k, D, m) uint16 states.

    The disparity axis is axis 1, so the minimum over it and the +-1
    disparity neighbours combine whole contiguous rows of m cells.
    """

    def __init__(self, shape, p1: int, p2: int):
        k, _, m = shape
        self.p1, self.p2 = np.uint16(p1), np.uint16(p2)
        self.low = np.empty((k, 1, m), np.uint16)
        self.low_p2 = np.empty_like(self.low)
        self.prev_p1 = np.empty(shape, np.uint16)

    def __call__(self, prev: np.ndarray, out: np.ndarray) -> None:
        low, low_p2, prev_p1 = self.low, self.low_p2, self.prev_p1
        np.min(prev, axis=1, keepdims=True, out=low)
        np.add(low, self.p2, out=low_p2)
        np.minimum(prev, low_p2, out=out)
        np.add(prev, self.p1, out=prev_p1)
        np.minimum(out[:, 1:], prev_p1[:, :-1], out=out[:, 1:])
        np.minimum(out[:, :-1], prev_p1[:, 1:], out=out[:, :-1])
        np.subtract(out, low, out=out)


def _shifted_add(line: np.ndarray, stepped: np.ndarray, dx: int, out: np.ndarray) -> None:
    """out[:, x] = line[:, x] + stepped[:, x - dx], and line[:, x] where x - dx is off the line.

    All three are contiguous (D, m) arrays, so the add runs once over the
    flat buffers; the one column whose flat neighbour lies in the next row
    is then reset to the line alone.
    """
    a, b, o = line.reshape(-1), stepped.reshape(-1), out.reshape(-1)
    lo, hi = max(dx, 0), a.size + min(dx, 0)
    np.add(a[lo:hi], b[lo - dx:hi - dx], out=o[lo:hi])
    if dx:
        edge = 0 if dx > 0 else -1
        out[:, edge] = line[:, edge]


def _sweep(C: np.ndarray, total: np.ndarray, paths, p1: int, p2: int) -> None:
    """Add the paths' accumulated costs to `total`, all paths stepped together.

    C and total are (n, m, D) views, of any strides, whose first axis is the
    sweep axis. Path (reverse, dx) visits the lines 0..n-1, or n-1..0 if
    `reverse`, and continues at column x from column x - dx of the line
    before. A path that starts at a border reads a zero state, which steps
    to exactly 0, so L = C there.

    The states are disparity-major (k, D, m). At each step the paths that
    read the same line share one (D, m) copy of it, `C[y].T`; each adds its
    stepped state to that copy, shifted by dx along m, and their sum goes
    back into `total[y]` once, through the transposed view.
    """
    n, m, D = C.shape
    paths = sorted(paths)  # the paths of one line are a contiguous block of L
    split = sum(not reverse for reverse, _ in paths)
    blocks = [(reverse, slice(lo, hi)) for reverse, lo, hi in
              ((False, 0, split), (True, split, len(paths))) if lo < hi]
    L = np.zeros((len(paths), D, m), np.uint16)
    stepped = np.empty_like(L)
    line = np.empty((D, m), np.uint16)
    line_sum = np.empty((D, m), np.uint16)
    step = _PathStep(L.shape, p1, p2)
    for t in range(n):
        step(L, out=stepped)
        for reverse, block in blocks:
            y = n - 1 - t if reverse else t
            np.copyto(line, C[y].T)
            for i in range(block.start, block.stop):
                _shifted_add(line, stepped[i], paths[i][1], out=L[i])
            np.add.reduce(L[block], axis=0, out=line_sum)
            total[y] += line_sum.T


def aggregate_costs(volume: CostVolume, params: SgmParams) -> CostVolume:
    """Sum of the path accumulations over `params.directions`, as uint16.

    Three sweeps cover every path: down the rows (the paths with dy = +1 as
    one (k, D, W) state, the diagonals reading the previous row shifted by
    one column), up the rows (dy = -1), and along x, where (0, +1) at column
    x and (0, -1) at column W-1-x step together as one (2, D, H) state. The
    states are disparity-major, so each step reduces over whole contiguous
    rows; the volume keeps its (H, W, D) layout, and each line of it is
    copied once, transposed, into a (D, W) or (D, H) buffer and summed back
    into one uint16 total through the transposed view. Every value is an
    exact integer below the bound checked here, so the result is
    bit-identical to summing the float32 one-path oracle of `tests/oracles.py`
    over the directions, in any order.
    """
    C = volume.costs
    n = len(params.directions)
    if n * (int(C.max()) + params.p2) > UINT16_MAX:
        raise ValueError(f"{n} paths x (max cost {int(C.max())} + P2 {params.p2:g}) "
                         f"exceeds the uint16 range")
    p1, p2 = int(params.p1), int(params.p2)
    dirs = params.directions
    total = np.zeros(C.shape, np.uint16)
    _sweep(C, total, [(False, dx) for dy, dx in dirs if dy == 1], p1, p2)
    _sweep(C, total, [(True, dx) for dy, dx in dirs if dy == -1], p1, p2)
    _sweep(C.transpose(1, 0, 2), total.transpose(1, 0, 2),
           [(dx < 0, 0) for dy, dx in dirs if dy == 0], p1, p2)
    raw = volume.raw if volume.raw is not None else volume.costs
    return CostVolume(costs=total, d_min=volume.d_min, d_max=volume.d_max,
                      max_cost=volume.max_cost, base=volume.base, raw=raw)


def _in_bounds_mask(W: int, d_min: int, D: int, base: str) -> np.ndarray:
    """(W, D) bool: does disparity d at column x map into the other image?"""
    x = np.arange(W)[:, None]
    d = d_min + np.arange(D)[None, :]
    other = x - d if base == "left" else x + d
    return (other >= 0) & (other < W)


def _wta(costs: np.ndarray, in_bounds: np.ndarray, d_min: int):
    """Masked winner-take-all with parabolic subpixel refinement on a row block.

    `in_bounds` is the (W, D) mask of `_in_bounds_mask`. Returns (disparity
    float32 (h, W), valid bool, best_idx).
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
    denom = cm - 2.0 * c0 + cp
    with np.errstate(divide="ignore", invalid="ignore"):
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


def select_disparity(aggregated: CostVolume, params: SgmParams,
                     right_aggregated: CostVolume = None) -> DisparityMap:
    """Winner-take-all selection with uniqueness and left-right consistency.

    Uniqueness: on the raw (pre-aggregation) costs, the winner's best distinct
    competitor (immediate disparity neighbors exempt) must exceed
    best * uniqueness_ratio; ties, as in textureless input, fail. Left-right:
    |d_L(x, y) - d_R(x - d_L, y)| <= lr_max_diff, checked when a right-base
    aggregated volume is supplied. Failing pixels are INVALID with the
    corresponding provenance flag set. Rows are selected SELECT_BLOCK_ROWS
    at a time, so the temporaries stay small beside the volumes.
    """
    H, W, D = aggregated.costs.shape
    if right_aggregated is not None:
        if right_aggregated.base != "right":
            raise ValueError("right_aggregated must be a right-base volume")
        if right_aggregated.costs.shape != aggregated.costs.shape:
            raise DimensionMismatch("left and right volumes differ in shape")
        r_in_bounds = _in_bounds_mask(W, right_aggregated.d_min, D, right_aggregated.base)
    in_bounds = _in_bounds_mask(W, aggregated.d_min, D, aggregated.base)
    # uniqueness on raw costs; aggregation would break the all-tie case via
    # the border wedge (see CostVolume.raw)
    raw = aggregated.raw if aggregated.raw is not None else aggregated.costs

    values = np.empty((H, W), np.float32)
    valid = np.empty((H, W), bool)
    flags = np.zeros((H, W), np.uint8)
    for y0 in range(0, H, SELECT_BLOCK_ROWS):
        rows = slice(y0, y0 + SELECT_BLOCK_ROWS)
        disparity, ok, best_idx = _wta(aggregated.costs[rows], in_bounds, aggregated.d_min)
        f = flags[rows]
        f[~ok] |= FLAG_OUT_OF_RANGE

        unique_ok = _unique(raw[rows], in_bounds, best_idx, params.uniqueness_ratio)
        f[ok & ~unique_ok] |= FLAG_UNIQUENESS_FAILED
        ok &= unique_ok

        if right_aggregated is not None:
            d_right, r_valid, _ = _wta(right_aggregated.costs[rows], r_in_bounds,
                                       right_aggregated.d_min)
            xr = np.rint(np.arange(W)[None, :] - disparity).astype(int)
            in_img = (xr >= 0) & (xr < W)
            xr_safe = np.clip(xr, 0, W - 1)
            r = np.arange(len(xr))[:, None]
            lr_ok = (in_img & r_valid[r, xr_safe]
                     & (np.abs(disparity - d_right[r, xr_safe]) <= params.lr_max_diff))
            f[ok & ~lr_ok] |= FLAG_LR_FAILED
            ok &= lr_ok

        valid[rows] = ok
        values[rows] = np.where(ok, disparity, np.float32(INVALID_DISPARITY))
    return DisparityMap(values=values, valid=valid, flags=flags)


def disparity_to_cloud(disp: DisparityMap, intrinsics: CameraIntrinsics,
                       baseline: float, pose: Pose,
                       color: np.ndarray = None) -> PointCloud:
    """Back-project a disparity map to a world-frame point cloud.

    Depth per valid pixel is Z = f * B / (d * pitch); pixels with disparity
    below 1e-3 px are skipped. `color` is an optional (H, W, 3) uint8 raster
    sampled at the source pixel.
    """
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    H, W = disp.values.shape
    use = disp.valid & (disp.values > MIN_CLOUD_DISPARITY)
    ys, xs = np.nonzero(use)
    d = disp.values[ys, xs].astype(float)
    Z = intrinsics.focal_px * baseline / d

    norm = _pixels_to_normalized(intrinsics, np.stack([xs, ys], axis=1).astype(float))
    cam = np.column_stack([norm[:, 0] * Z, norm[:, 1] * Z, Z])
    world = cam @ pose.rotation().T + pose.t

    colors = None
    if color is not None:
        colors = np.asarray(color)[ys, xs].astype(np.uint8)
    return PointCloud(positions=world, colors=colors)
