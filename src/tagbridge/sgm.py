"""Semi-global matching on rectified stereo pairs.

Pipeline: census transform -> Hamming cost volume -> path-wise cost
aggregation with P1/P2 smoothness penalties -> winner-take-all disparity
selection with subpixel refinement, uniqueness and left-right checks ->
optional conversion of the disparity map to a 3D point cloud.

Matching cost is census + Hamming: deterministic, offset-invariant, and
checkable against small exhaustive oracles. A block of cost rows is one XOR
of uint32 census words against a sliding window over the zero-padded match
raster, one popcount sum and one masked store of the out-of-bounds cost.
Raw costs are uint8 while that cost and the word bits fit (CostVolume).
Aggregation sums the eight paths of PATHS, the fewest that Hirschmueller
(TPAMI 2008, section 3.3) asks for. Aggregated costs are uint16 and exact:
with integer P1 and P2 a path value is at most max(C) + P2, so the 8-path
sum is at most 8 * (max(C) + P2), 1 152 for a 5x5 census at the defaults;
`aggregate_costs` rejects volumes whose bound exceeds 65 535. The path
states are uint8 whenever max(C) + P1 + P2 <= 255 (a 5x5 census at the
defaults: 24 + 10 + 120), else uint16.

Volumes are (H, W, D). One row sweep steps the down and the up paths
together as a disparity-major (2, 3, D, W + 2) state, so the minimum
over d and the +-1 disparity neighbours combine contiguous rows. Each step
copies the two image rows it reads into one (2, D, W) buffer, adds that to
every path's stepped state, shifted by its column offset, in one call, and
adds the paths' sums back through the transpose; the zero pad columns are
what a path entering from the border reads. The x sweep steps a
disparity-last (2, H, D + 2) state and reads each column of the volume
where it lies, H rows of D contiguous cells, so it copies nothing; each
line's two pad cells hold iinfo(dtype).max - P1, dtype the state dtype, so
no flat +-1 shift carries one line's edge into the next. Each sweep binds
its state buffers, the path step's shifted views and its line views once,
before the first step, so a step builds no view but those of the volume's
and the total's lines it reads and adds into. Selection reads
the volumes in place too, a block of rows at a time; both it and the cost
layer size their blocks by BLOCK_CELLS cells. No volume-sized copy is made;
the cost layer's buffers are one padded match raster and one block.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fusion import PointCloud
from .geometry import CameraIntrinsics, Pose, _pixels_to_normalized

INVALID_DISPARITY = -1.0
MIN_CLOUD_DISPARITY = 1e-3

FLAG_LR_FAILED = 1
FLAG_UNIQUENESS_FAILED = 2
FLAG_OUT_OF_RANGE = 4

# The eight aggregated paths as (dy, dx) steps, in fixed summation order.
PATHS = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1))

# Cells per row block, at least one row: cost cells times census words in
# matching_cost_volume, volume cells in select_disparity. 16 rows at 320 x 64
# with one word; 64-row cost blocks took 35 % longer at 240 x 320 x 64.
BLOCK_CELLS = 16 * 320 * 64
UINT16_MAX = np.iinfo(np.uint16).max
OUT_OF_BOUNDS = UINT16_MAX + 1  # selection's masked cells: above every uint16 cost


def _check_census_window(window):
    """Raise ValueError unless both sizes are odd positive integers and not both 1."""
    h, w = window
    if not all(isinstance(v, numbers.Integral) for v in (h, w)):
        raise ValueError("census window sizes must be integers")
    if not (min(h, w) >= 1 and h % 2 == w % 2 == 1 and h * w > 1):
        raise ValueError("census window sizes must be odd and positive, and not both 1")


def _check_disparity_range(d_min, d_max):
    """Raise ValueError unless d_min < d_max are both integers."""
    # integer types, not integer-valued floats: they size arrays and bound ranges
    if not all(isinstance(v, numbers.Integral) for v in (d_min, d_max)):
        raise ValueError("d_min and d_max must be integers")
    if d_min >= d_max:
        raise ValueError("d_min must be < d_max")


@dataclass(frozen=True)
class SgmParams:
    d_min: int
    d_max: int
    p1: float = 10.0
    p2: float = 120.0
    census_window: tuple = (5, 5)
    lr_max_diff: float = 1.0
    uniqueness_ratio: float = 1.05

    def __post_init__(self):
        _check_disparity_range(self.d_min, self.d_max)
        if not (0 < self.p1 < self.p2):
            raise ValueError("penalties must satisfy 0 < P1 < P2")
        if not (float(self.p1).is_integer() and float(self.p2).is_integer()):
            raise ValueError("penalties P1 and P2 must be integer-valued")
        _check_census_window(self.census_window)
        if not self.lr_max_diff > 0:
            raise ValueError("lr_max_diff must be positive")
        if not 1.0 <= self.uniqueness_ratio < np.inf:
            raise ValueError("uniqueness_ratio must be finite and >= 1")


@dataclass
class CostVolume:
    """Per-pixel, per-disparity matching costs C(x, y, d), d = d_min..d_min + D - 1.

    D is the last axis of `costs`. Matching costs are uint8 when
    max(max_cost, 32 * census words) <= 255 (a 5x5 census: 24 and 32), else
    uint16; the path sums of `aggregate_costs` are uint16. `base` records
    which image the volume is anchored to ("left": matches at x - d in the
    other image; "right": matches at x + d). A matching cost volume has no
    `raw`; `aggregate_costs` sets it to the costs of the volume it
    aggregated, and `select_disparity` reads them for the uniqueness test:
    path accumulation seeds a spurious unique minimum from the out-of-bounds
    border wedge even when every true matching cost ties (textureless input).
    """

    costs: np.ndarray  # (H, W, D)
    d_min: int
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


def census_transform(image: np.ndarray, window) -> np.ndarray:
    """Census descriptor raster over a (height, width) `window`: bit i set
    iff neighbor i < center.

    Neighbors are enumerated in row-major order over the window with the
    center excluded; borders use edge-clamped neighborhoods. Returns an
    (H, W, ceil(n_bits / 32)) uint32 raster, LSB first within each word.
    NaN pixels raise ValueError, since they compare false with every
    neighbour; +-inf are ordered and accepted.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("image must be 2-D grayscale")
    if np.isnan(image).any():
        raise ValueError("image holds NaN pixels")
    _check_census_window(window)
    wh, ww = window
    H, W = image.shape
    if H < wh or W < ww:
        raise ValueError(f"{W}x{H} image with {ww}x{wh} census window")

    ph, pw = wh // 2, ww // 2
    padded = np.pad(image, ((ph, ph), (pw, pw)), mode="edge")
    n_bits = wh * ww - 1
    desc = np.zeros((H, W, -(-n_bits // 32)), dtype=np.uint32)

    bit = 0
    for dy in range(-ph, ph + 1):
        for dx in range(-pw, pw + 1):
            if dy == 0 and dx == 0:
                continue
            neighbor = padded[ph + dy:ph + dy + H, pw + dx:pw + dx + W]
            mask = neighbor < image
            word, offset = divmod(bit, 32)
            desc[:, :, word] |= mask.astype(np.uint32) << np.uint32(offset)
            bit += 1
    return desc


def census_bits(window) -> int:
    return window[0] * window[1] - 1


def matching_cost_volume(base_desc: np.ndarray, match_desc: np.ndarray,
                         d_min: int, d_max: int, max_cost: int,
                         base: str = "left") -> CostVolume:
    """Hamming cost volume C(x, y, d) = dist(base(x, y), match(x -+ d, y)), d = d_min..d_max.

    The match pixel is x - d for a left base and x + d for a right base;
    out-of-bounds matches get `max_cost`, the census bit count
    (`census_bits`). `d_min` < `d_max` must be integers, and `max_cost` an
    integer in [0, 65535] (ValueError otherwise). Costs are uint8 when
    max(max_cost, n_words * word bits) <= 255, else uint16.
    """
    if base_desc.shape != match_desc.shape:
        raise ValueError(f"raster shapes differ: {base_desc.shape} vs {match_desc.shape}")
    _check_disparity_range(d_min, d_max)
    if base not in ("left", "right"):
        raise ValueError("base must be 'left' or 'right'")
    if not (isinstance(max_cost, numbers.Integral) and 0 <= max_cost <= UINT16_MAX):
        raise ValueError("max_cost must be an integer in [0, 65535]")

    H, W, n_words = base_desc.shape
    D = d_max - d_min + 1
    dtype = np.uint8 if max(max_cost, 8 * base_desc.itemsize * n_words) <= 255 else np.uint16
    costs = np.empty((H, W, D), dtype)
    # window[y, j, i] holds match column j + i - pad: base column x matches x -+ (d_min + i)
    pad = max(-d_min, d_max)
    padded = np.pad(match_desc, ((0, 0), (pad, pad), (0, 0)))
    window = np.moveaxis(sliding_window_view(padded, D, axis=1), -1, 2)
    match = (window[:, pad - d_max:pad - d_max + W, ::-1] if base == "left"
             else window[:, pad + d_min:pad + d_min + W])
    bounds = _InBounds(W, d_min, D, base)
    rows = min(H, max(1, BLOCK_CELLS // (W * D * n_words)))
    xor = np.empty((rows, W, D, n_words), base_desc.dtype)
    for r0 in range(0, H, rows):
        block, x = costs[r0:r0 + rows], xor[:H - r0]
        np.bitwise_xor(base_desc[r0:r0 + rows, :, None], match[r0:r0 + rows], out=x)
        np.bitwise_count(x).sum(axis=-1, dtype=dtype, out=block)
        np.copyto(block[:, bounds.wedge], dtype(max_cost), where=bounds.wedge_out)
    return CostVolume(costs=costs, d_min=d_min, base=base)


class _PathStep:
    """Steps `prev` into `out`: min(q[d], q[d+-1] + P1, P2) for q = prev - min_k prev[k].

    That is min(prev[d], prev[d+-1] + P1, min_k prev[k] + P2) - min_k prev[k]
    exactly, with the minimum subtracted first. `prev` and `out` are the
    sweep's two C-contiguous state buffers, of the unsigned state dtype that
    `aggregate_costs` picks: every real state, and itself plus P1, fits in
    it. P2 is a state-shaped array: numpy 2.4's minimum against a uint8
    scalar takes over 10 times as long. `axis` is the disparity axis: 1 for
    the disparity-major (k, D, m) states of the y sweep, 2 for the
    disparity-last (k, m, D + 2) states of the x sweep, whose minimum over d
    is one `reduceat` over the flat state. Each path's state is one flat
    row, and the +-1 disparity neighbours are shifts of those rows by the
    disparity stride. With the disparity axis last a shift crosses from one
    line into the next, so those states pad every line with a cell on each
    end that holds iinfo(dtype).max - P1: no lower than any real state, so
    it never wins a minimum, and without wrapping once P1 is added.

    The buffers, their flat rows and the shifted views are bound here, once
    per sweep, so a step is six ufunc calls that build no view.
    """

    def __init__(self, prev: np.ndarray, out: np.ndarray, p1: int, p2: int, axis: int = 1):
        shape, dtype = prev.shape, prev.dtype.type
        self.prev, self.out, self.p1 = prev, out, dtype(p1)
        self.p2 = np.full(shape, p2, dtype)
        self.low = np.empty(shape[:axis] + (1,) + shape[axis + 1:], dtype)
        self.q = np.empty(shape, dtype)
        if axis == len(shape) - 1:  # one line of the flat state per minimum
            lines = np.arange(0, prev.size, shape[-1])
            self.minimum = functools.partial(np.minimum.reduceat, prev.reshape(-1), lines,
                                             out=self.low.reshape(-1))
        else:
            self.minimum = functools.partial(np.minimum.reduce, prev, axis, None, self.low, True)
        s = math.prod(shape[axis + 1:])  # the disparity stride
        o, q = out.reshape(shape[0], -1), self.q.reshape(shape[0], -1)
        self.out_hi, self.q_lo = o[:, s:], q[:, :-s]  # out[d] against q[d - 1] + P1
        self.out_lo, self.q_hi = o[:, :-s], q[:, s:]  # out[d] against q[d + 1] + P1

    def __call__(self) -> None:
        q = self.q
        self.minimum()
        np.subtract(self.prev, self.low, out=q)
        np.minimum(q, self.p2, out=self.out)
        np.add(q, self.p1, out=q)
        np.minimum(self.out_hi, self.q_lo, out=self.out_hi)
        np.minimum(self.out_lo, self.q_hi, out=self.out_lo)


def _sweep_y(C: np.ndarray, total: np.ndarray, p1: int, p2: int, dtype) -> None:
    """Add the accumulated costs of the six paths (+-1, dx), dx = +1, 0, -1, to `total`.

    C and total are (H, W, D), of any strides. The path (1, dx) visits the
    rows 0..H-1 and (-1, dx) the rows H-1..0; each continues at column x from
    column x - dx of the row before. The two directions step as one
    disparity-major (2, 3, D, W + 2) `dtype` state whose two pad columns stay
    0: a zero column steps to exactly 0, so a path entering from the border
    reads 0 and L = C there. At step t the rows C[t] and C[H-1-t] are copied
    transposed into one (2, D, W) buffer, added to every path's stepped state
    shifted by its dx, and the paths' uint16 sums are added into `total`
    through the transposed views of the sum buffer; an odd H's middle row is
    added by both directions. Every buffer and view but the rows of C and
    `total` is bound before the first step.
    """
    H, W, D = C.shape
    L = np.zeros((2, 3, D, W + 2), dtype)  # paths dx = +1, 0, -1
    stepped = np.empty_like(L)
    # stepped[:, i, :, i:i + W] for the path dx = 1 - i, one read-only view of every path
    shifted = np.moveaxis(np.diagonal(
        sliding_window_view(stepped, W, axis=3), axis1=1, axis2=3), -1, 1)
    lines = np.empty((2, 1, D, W), dtype)
    line_sum = np.empty((2, D, W), np.uint16)
    # the step sees the six paths as one (6, D, W + 2) state
    step = _PathStep(L.reshape(-1, D, W + 2), stepped.reshape(-1, D, W + 2), p1, p2)
    inner, CT = L[..., 1:-1], C.transpose(0, 2, 1)
    down, up = lines[:, 0]
    down_sum, up_sum = line_sum.transpose(0, 2, 1)
    # step t reads the rows C[t] and C[H-1-t] and adds into the same rows of total
    for c_down, c_up, t_down, t_up in zip(CT, CT[::-1], total, total[::-1]):
        step()
        np.copyto(down, c_down)
        np.copyto(up, c_up)
        np.add(lines, shifted, out=inner)
        np.add.reduce(inner, axis=1, dtype=np.uint16, out=line_sum)
        np.add(t_down, down_sum, out=t_down)
        np.add(t_up, up_sum, out=t_up)


def _sweep_x(C: np.ndarray, total: np.ndarray, p1: int, p2: int, dtype) -> None:
    """Add the paths (0, +1) and (0, -1) to `total`, stepped as one (2, H, D + 2) state.

    Step t reads the columns C[:, t] and C[:, W-1-t], rows of D contiguous
    cells, as one two-column slice of the column-major views (its stride
    negative past the middle), and adds both paths into the same two columns
    of `total` with one call; an odd W's middle column is read and added by
    each path in turn. Each line's two end cells hold iinfo(dtype).max - P1
    throughout (see _PathStep).
    """
    H, W, D = C.shape
    L = np.full((2, H, D + 2), np.iinfo(dtype).max - p1, dtype)
    stepped = np.empty_like(L)
    step = _PathStep(L, stepped, p1, p2, axis=2)
    state, new = L[..., 1:-1], stepped[..., 1:-1]
    state[...] = 0
    columns, sums = C.transpose(1, 0, 2), total.transpose(1, 0, 2)
    for t in range(W):
        step()
        u = W - 1 - t
        if t == u:
            for i in range(2):
                np.add(columns[t], new[i], out=state[i], dtype=dtype)
                np.add(sums[t], state[i], out=sums[t])
        else:
            x, into = columns[t::u - t][:2], sums[t::u - t][:2]  # columns t and u
            np.add(x, new, out=state, dtype=dtype)
            np.add(into, state, out=into)


def aggregate_costs(volume: CostVolume, params: SgmParams) -> CostVolume:
    """Sum of the path accumulations over the 8 paths of PATHS, as uint16.

    Two sweeps cover every path, each adding into one uint16 total: along y,
    where the paths with dy = +1 (from row 0) and dy = -1 (from row H-1)
    step together as one disparity-major (2, 3, D, W + 2) state, the
    diagonals reading the previous row shifted by one column; and along x,
    where (0, +1) at column x and (0, -1) at column W-1-x step together as
    one disparity-last (2, H, D + 2) state. The volume keeps its (H, W, D)
    layout: each y step copies two rows, transposed, into a (2, D, W) buffer
    and sums back through the transposed view, and the x sweep reads and adds
    the columns in place. Every value is an exact integer: a state is at
    most max(C) + P2, and the 8-path total at most 8 times that, which the
    check here keeps within uint16. The states are uint8 when
    max(C) + P1 + P2 <= 255 and uint16 otherwise; either way a state plus
    P1 does not wrap, and the x sweep's iinfo(dtype).max - P1 padding is no
    lower than any state. So the result is bit-identical to summing the
    float32 one-path oracle of `tests/oracles.py` over PATHS, in any order.
    """
    C = volume.costs
    n = len(PATHS)
    c_max, p1, p2 = int(C.max()), int(params.p1), int(params.p2)
    if n * (c_max + p2) > UINT16_MAX:
        raise ValueError(f"{n} paths x (max cost {c_max} + P2 {p2}) exceeds the uint16 range")
    dtype = np.uint8 if c_max + p1 + p2 <= np.iinfo(np.uint8).max else np.uint16
    total = np.zeros(C.shape, np.uint16)
    _sweep_y(C, total, p1, p2, dtype)
    _sweep_x(C, total, p1, p2, dtype)
    return CostVolume(costs=total, d_min=volume.d_min, base=volume.base, raw=volume.costs)


class _InBounds:
    """The disparities that map into the other image, column by column.

    Column x's in-bounds disparity indices are one interval, lo[x]..hi[x]
    (empty where lo > hi). The cost volume and selection mask only the
    wedge: the columns from the first to the last whose interval is not all
    of 0..D-1. With d_min >= 0 these are the first d_max columns of a left
    base and the last d_max of a right one. `wedge_out` is their (columns,
    D) out-of-bounds mask.
    """

    def __init__(self, W: int, d_min: int, D: int, base: str):
        x = np.arange(W)
        # the match lies at x - (d_min + i) for a left base, x + (d_min + i) for a right one
        if base == "left":
            lo, hi = x - d_min - (W - 1), x - d_min
        else:
            lo, hi = -x - d_min, W - 1 - x - d_min
        self.lo, self.hi = np.maximum(lo, 0), np.minimum(hi, D - 1)
        self.valid = self.lo <= self.hi
        partial = np.flatnonzero((self.lo > 0) | (self.hi < D - 1))
        self.wedge = slice(partial[0], partial[-1] + 1) if partial.size else slice(0, 0)
        i = np.arange(D)
        self.wedge_out = (i < self.lo[self.wedge, None]) | (i > self.hi[self.wedge, None])


def _widen(block: np.ndarray, bounds: _InBounds, buffer: np.ndarray) -> np.ndarray:
    """Copy an (h, W, D) block into the uint32 buffer, wedge out-of-bounds cells OUT_OF_BOUNDS."""
    out = buffer[:len(block)]
    np.copyto(out, block)
    np.copyto(out[:, bounds.wedge], OUT_OF_BOUNDS, where=bounds.wedge_out)
    return out


def _wta(costs: np.ndarray, bounds: _InBounds, d_min: int, wide: np.ndarray):
    """In-bounds winner-take-all with parabolic subpixel refinement on an (h, W, D) row block.

    The block is widened into `wide` (see _widen). numpy's argmin over a
    short last axis is also faster on uint32 than on uint16 (0.41 against
    0.78 ms on a 16 x 320 x 64 block, numpy 2.4). The winner and its +-1
    neighbours, clipped to 0..D-1, are gathered by flat index, and the
    parabola is fitted in float32. Returns (disparity float32 (h, W), near),
    `near` holding the flat indices of the clipped -1, 0 and +1 neighbours.
    """
    h, W, D = costs.shape
    wide = _widen(costs, bounds, wide)
    best_idx = np.argmin(wide, axis=2)

    cell = np.arange(0, h * W * D, D).reshape(h, W) + best_idx
    near = np.stack([cell - (best_idx > 0), cell, cell + (best_idx < D - 1)])
    cm, c0, cp = wide.reshape(-1)[near].astype(np.float32)
    # parabola through (c-, c0, c+); only where both neighbours are in bounds
    usable = (best_idx > bounds.lo) & (best_idx < bounds.hi)
    denom = cm - 2.0 * c0 + cp
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = 0.5 * (cm - cp) / denom
    offset = np.where(usable & (denom > 1e-12), offset, 0.0)

    disparity = (d_min + best_idx + offset).astype(np.float32)
    return disparity, near


def _unique(raw: np.ndarray, bounds: _InBounds, near: np.ndarray, ratio: float,
            wide: np.ndarray) -> np.ndarray:
    """Does the best raw competitor beyond the winner +- 1 exceed best * ratio?

    The raw block is widened into `wide` with the winner +- 1 also set to
    OUT_OF_BOUNDS, so its minimum over d, a `reduceat` over the flat block,
    is the best competitor, and a column has one exactly where that minimum
    is a uint16 cost.
    """
    h, W, D = raw.shape
    wide = _widen(raw, bounds, wide)
    flat = wide.reshape(-1)
    best = flat[near[1]].astype(np.float32)
    flat[near] = OUT_OF_BOUNDS
    second = np.minimum.reduceat(flat, np.arange(0, flat.size, D)).reshape(h, W)
    return (second <= UINT16_MAX) & (second > best * ratio)


def select_disparity(aggregated: CostVolume, params: SgmParams,
                     right_aggregated: CostVolume) -> DisparityMap:
    """Winner-take-all selection with uniqueness and left-right consistency.

    Takes the pair: a left-base and a right-base volume from
    `aggregate_costs` (ValueError for other bases, or a left volume without
    `raw` costs). Uniqueness: on the left raw costs, the winner's best
    competitor beyond its +-1 neighbours must exceed best * uniqueness_ratio;
    ties, as in textureless input, fail. Left-right:
    |d_L(x, y) - d_R(x - d_L, y)| <= lr_max_diff, d_R the right volume's
    winner. A pixel gets the flag of its first failure (out of range,
    uniqueness, left-right) and is INVALID; `valid` is flags == 0. Rows go
    BLOCK_CELLS // (W * D) at a time, at least one, through one uint32 block
    buffer, which the winner, the uniqueness test and the right map each fill
    with their block, its wedge out-of-bounds cells set to OUT_OF_BOUNDS =
    65 536, one above any uint16 cost. The result is bit-identical to the
    float32 whole-volume reference in `tests/oracles.py`, for every uint8 or
    uint16 input.
    """
    if aggregated.base != "left" or right_aggregated.base != "right":
        raise ValueError("the left-right check takes a left-base volume and a right-base one")
    if right_aggregated.costs.shape != aggregated.costs.shape:
        raise ValueError("left and right volumes differ in shape")
    # uniqueness on raw costs; aggregation would break the all-tie case via
    # the border wedge (see CostVolume.raw)
    if aggregated.raw is None:
        raise ValueError("the left volume has no raw costs: pass the output of aggregate_costs")
    H, W, D = aggregated.costs.shape
    bounds = _InBounds(W, aggregated.d_min, D, aggregated.base)
    r_bounds = _InBounds(W, right_aggregated.d_min, D, right_aggregated.base)
    block = min(H, max(1, BLOCK_CELLS // (W * D)))
    wide = np.empty((block, W, D), np.uint32)

    values = np.empty((H, W), np.float32)
    flags = np.zeros((H, W), np.uint8)
    flags[:, ~bounds.valid] = FLAG_OUT_OF_RANGE
    for y0 in range(0, H, block):
        rows = slice(y0, y0 + block)
        f = flags[rows]
        disparity, near = _wta(aggregated.costs[rows], bounds, aggregated.d_min, wide)
        unique_ok = _unique(aggregated.raw[rows], bounds, near, params.uniqueness_ratio, wide)
        f[(f == 0) & ~unique_ok] = FLAG_UNIQUENESS_FAILED

        d_right, _ = _wta(right_aggregated.costs[rows], r_bounds, right_aggregated.d_min, wide)
        xr = np.rint(np.arange(W)[None, :] - disparity).astype(int)
        in_img = (xr >= 0) & (xr < W)
        xr_safe = np.clip(xr, 0, W - 1)
        d_match = np.take_along_axis(d_right, xr_safe, axis=1)
        lr_ok = (in_img & r_bounds.valid[xr_safe]
                 & (np.abs(disparity - d_match) <= params.lr_max_diff))
        f[(f == 0) & ~lr_ok] = FLAG_LR_FAILED

        values[rows] = np.where(f == 0, disparity, np.float32(INVALID_DISPARITY))
    return DisparityMap(values=values, valid=flags == 0, flags=flags)


def disparity_to_cloud(disp: DisparityMap, intrinsics: CameraIntrinsics,
                       baseline: float, pose: Pose,
                       color: np.ndarray = None) -> PointCloud:
    """Back-project a disparity map to a world-frame point cloud.

    Depth per valid pixel is Z = f * B / (d * pitch). A pixel gives a point
    only where its float32 disparity exceeds float32(MIN_CLOUD_DISPARITY)
    (the Python float compares as float32), so float32(1e-3) =
    1.0000000475e-3 px is skipped too. The baseline must be positive and
    finite (ValueError otherwise). `color` is an optional (H, W, 3) raster of
    integers in [0, 255] (ValueError otherwise), sampled at the source pixel;
    without it every point is black and color-invalid. Pixels are selected
    by one flat index, which reads both rasters in row-major order.
    """
    if not 0 < baseline < np.inf:
        raise ValueError("baseline must be positive and finite")
    H, W = disp.values.shape
    if color is not None:
        color = np.asarray(color)
        if color.shape != (H, W, 3):
            raise ValueError(f"color must be an (H, W, 3) = ({H}, {W}, 3) raster, "
                             f"not {color.shape}")
    index = np.flatnonzero(disp.valid & (disp.values > MIN_CLOUD_DISPARITY))
    # camera coordinates (normalized (u, v) * Z, Z), filled in place
    cam = np.empty((len(index), 3))
    Z = cam[:, 2:]
    Z[:, 0] = disp.values.reshape(-1)[index]
    np.divide(intrinsics.focal_px * baseline, Z, out=Z)
    pixels = np.empty((2, len(index)))  # x and y rows, so each pass runs along the points
    np.divmod(index, W, out=(pixels[1], pixels[0]))
    np.multiply(_pixels_to_normalized(intrinsics, pixels.T), Z, out=cam[:, :2])
    world = cam @ pose.rotation().T + pose.t

    return PointCloud(positions=world,
                      colors=None if color is None else color.reshape(-1, 3)[index])
