"""Synthetic scenes with exact ground truth for every pipeline stage.

Determinism contract: every output is a pure function of the spec and the
seeds. Randomness comes from counter-based Philox streams (sub-seeded per
entity via SeedSequence spawn keys, so chunked or parallel generation cannot
reorder a stream), and Gaussian noise is derived from the integer stream by a
fixed transform (inverse normal CDF on open-interval uniforms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .geometry import (
    CameraIntrinsics,
    Pose,
    RigidTransform,
    apply_transform,
    project_points,
    rotation_from_angles,
)
from .register import LocalTagSighting, Trajectory, apply_to_trajectory
from .triangulate import TagObservation

# spawn-key namespaces for the per-entity sub-streams
_KEY_TRANSFORM = 1
_KEY_TIE_POINTS = 2
_KEY_OBSERVATIONS = 3
_KEY_SIGHTINGS = 4
_KEY_TEXTURE = 5


def _stream(seed, *key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def gaussian(rng, shape):
    """Standard normals via a fixed transform of the uniform integer stream."""
    u = (rng.integers(0, 1 << 53, shape).astype(np.float64) + 0.5) * 2.0 ** -53
    return ndtri(u)


@dataclass(frozen=True)
class FlightPlan:
    altitude: float = 100.0
    overlap: float = 0.6
    strips: int = 1


@dataclass(frozen=True)
class WalkPlan:
    waypoints: tuple = ((0.0, -30.0, 1.7), (0.0, 30.0, 1.7))
    speed: float = 1.4
    rate_hz: float = 10.0


@dataclass(frozen=True)
class SceneSpec:
    tags: dict = None
    flight: FlightPlan = FlightPlan()
    walk: WalkPlan = WalkPlan()
    seed: int = 0
    n_tie_points: int = 40

    def __post_init__(self):
        if self.tags is None:
            object.__setattr__(self, "tags", default_tag_layout())
        if not self.tags or not all(np.shape(p) == (3,) and np.all(np.isfinite(p))
                                    for p in self.tags.values()):
            raise ValueError("tags must be a non-empty map of finite (3,) positions")
        if not 0 < self.flight.altitude < np.inf:
            raise ValueError("flight altitude must be positive and finite")
        if not 0.0 <= self.flight.overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        if not (isinstance(self.flight.strips, (int, np.integer)) and self.flight.strips >= 1):
            raise ValueError("flight strips must be an integer of at least 1")
        if not (0 < self.walk.speed < np.inf and 0 < self.walk.rate_hz < np.inf):
            raise ValueError("walk speed and rate must be positive and finite")
        wp = np.asarray(self.walk.waypoints, dtype=float)
        if wp.ndim != 2 or wp.shape[1] != 3 or len(wp) < 2 or not np.all(np.isfinite(wp)):
            raise ValueError("walk needs at least two finite (3,) waypoints")
        if not np.all(np.linalg.norm(np.diff(wp, axis=0), axis=1) > 0):
            raise ValueError("consecutive walk waypoints must differ")
        if not (isinstance(self.n_tie_points, (int, np.integer)) and self.n_tie_points >= 0):
            raise ValueError("n_tie_points must be a non-negative integer")


def default_tag_layout() -> dict:
    """Seven plates spread in front of a building entrance, not collinear."""
    return {
        1: np.array([-12.0, 4.0, 0.0]),
        2: np.array([-8.0, -3.0, 0.2]),
        3: np.array([-3.0, 5.0, 0.0]),
        4: np.array([0.5, -4.5, 0.1]),
        5: np.array([4.0, 3.0, 0.0]),
        6: np.array([9.0, -2.0, 0.3]),
        7: np.array([13.0, 4.5, 0.0]),
    }


@dataclass
class Scene:
    tags: dict
    camera_poses: dict
    tie_points: dict
    trajectory_world: Trajectory
    trajectory_local: Trajectory
    world_from_local: RigidTransform


def _heading_angles(theta: float) -> np.ndarray:
    """Level forward-looking pose: camera +Z along the horizontal heading."""
    return np.array([-math.pi / 2, 0.0, math.atan2(-math.cos(theta), math.sin(theta))])


def _walk_trajectory(walk: WalkPlan) -> Trajectory:
    wp = np.asarray(walk.waypoints, dtype=float)
    seg = np.diff(wp, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    total = float(seg_len.sum())
    dt = 1.0 / walk.rate_hz
    n = int(math.floor(total / walk.speed / dt)) + 1
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    timestamps = np.arange(n) * dt
    s = np.minimum(timestamps * walk.speed, total)
    k = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(seg) - 1)
    frac = (s - cum[k]) / seg_len[k]
    headings = np.array([_heading_angles(math.atan2(d[1], d[0])) for d in seg])
    return Trajectory(timestamps=timestamps, t=wp[k] + frac[:, None] * seg[k], r=headings[k])


def gen_scene(spec: SceneSpec, intrinsics: CameraIntrinsics = None) -> Scene:
    """Deterministic scene: aerial camera grid, tie points, walk trajectory.

    The camera grid covers the tag/tie-point area at the planned altitude
    with the requested forward overlap; all aerial poses are exact nadir.
    Coverage: `flight.strips` strips, centred on the tag extent and spaced
    by (1 - overlap) of the footprint across track, each hold
    ceil(extent_x / spacing_x) + 3 frames (at least 2), where extent_x is
    the tags' x-extent plus a 2 m margin on each side. The three extra
    frames are margin, so every tag inside the strip band is seen in several
    frames. Overlap sets only the spacing, not how far the grid reaches: a
    tag field smaller than one footprint gets a few frames per strip that
    each see every tag.
    `intrinsics` (aerial) defaults to a 50 mm / 7.4 um / 16 MPix camera.
    """
    if intrinsics is None:
        intrinsics = CameraIntrinsics(f=50.0, pixel_pitch=0.0074, x0=2432.0, y0=1616.0,
                                      width=4864, height=3232)
    tag_pts = np.array(list(spec.tags.values()), dtype=float).reshape(-1, 3)

    footprint_x = spec.flight.altitude * intrinsics.width * intrinsics.pixel_pitch / intrinsics.f
    footprint_y = spec.flight.altitude * intrinsics.height * intrinsics.pixel_pitch / intrinsics.f
    spacing_x = footprint_x * (1.0 - spec.flight.overlap)
    spacing_y = footprint_y * (1.0 - spec.flight.overlap)

    lo = tag_pts.min(axis=0)[:2] - 2.0
    hi = tag_pts.max(axis=0)[:2] + 2.0
    center = 0.5 * (lo + hi)
    half_span = 0.5 * (hi - lo)
    # enough images that every tag appears in several frames
    n_along = max(2, int(math.ceil(2 * half_span[0] / spacing_x)) + 3)
    xs = center[0] + (np.arange(n_along) - (n_along - 1) / 2.0) * spacing_x
    ys = center[1] + (np.arange(spec.flight.strips)
                      - (spec.flight.strips - 1) / 2.0) * spacing_y

    camera_poses = {
        f"img_{i:04d}": Pose(t=(x, y, spec.flight.altitude), r=(math.pi, 0.0, 0.0))
        for i, (y, x) in enumerate((y, x) for y in ys for x in xs)}

    tie_points = dict(enumerate(_stream(spec.seed, _KEY_TIE_POINTS).uniform(
        (lo[0], lo[1], 0.0), (hi[0], hi[1], 3.0), (spec.n_tie_points, 3))))

    rng_T = _stream(spec.seed, _KEY_TRANSFORM)
    angle = rng_T.uniform(-math.pi, math.pi)
    world_from_local = RigidTransform(
        rotation=rotation_from_angles((0.0, 0.0, angle)),
        translation=np.array([rng_T.uniform(-50, 50), rng_T.uniform(-50, 50),
                              rng_T.uniform(-2, 2)]))

    trajectory_world = _walk_trajectory(spec.walk)
    trajectory_local = apply_to_trajectory(world_from_local.inverse(), trajectory_world)
    return Scene(tags=dict(spec.tags), camera_poses=camera_poses,
                 tie_points=tie_points, trajectory_world=trajectory_world,
                 trajectory_local=trajectory_local, world_from_local=world_from_local)


def render_observations(scene: Scene, intrinsics: CameraIntrinsics,
                        pixel_sigma: float = 0.0, seed: int = 0):
    """Project every visible tag and tie point into every aerial camera.

    Returns (tag observations, tie measurements) where tie measurements are
    (image_id, point_id, pixel) triples. Noise streams are sub-seeded per
    image, so generation order cannot change the output; each image draws
    noise for every tag, then every tie point, visible or not.
    """
    n_tags = len(scene.tags)
    ids = sorted(scene.tags) + sorted(scene.tie_points)
    points = np.array([scene.tags[i] for i in ids[:n_tags]]
                      + [scene.tie_points[i] for i in ids[n_tags:]]).reshape(-1, 3)

    observations = []
    tie_measurements = []
    for img_index, image_id in enumerate(sorted(scene.camera_poses)):
        px, ok = project_points(intrinsics, scene.camera_poses[image_id], points)
        noisy = px + gaussian(_stream(seed, _KEY_OBSERVATIONS, img_index), px.shape) * pixel_sigma
        for i in np.flatnonzero(ok & intrinsics.in_bounds(px)):
            if i < n_tags:
                observations.append(TagObservation(image_id=image_id, tag_id=ids[i],
                                                   pixel=noisy[i]))
            else:
                tie_measurements.append((image_id, ids[i], noisy[i]))
    return observations, tie_measurements


def render_sightings(scene: Scene, sigma_m: float = 0.0, seed: int = 0):
    """Local-frame tag sightings as the ground rig would measure them.

    Each tag is sighted once, in tag-id order.
    """
    inv = scene.world_from_local.inverse()
    sightings = []
    for i, tag_id in enumerate(sorted(scene.tags)):
        rng = _stream(seed, _KEY_SIGHTINGS, i)
        local = apply_transform(inv, scene.tags[tag_id])
        local = local + gaussian(rng, (3,)) * sigma_m
        sightings.append(LocalTagSighting(tag_id=tag_id, local_vector=local))
    return sightings


@dataclass
class StereoPair:
    """Rectified pair with left-based truth: right(x - d) = left(x).

    `occlusion` marks left pixels whose surface the right camera does not
    see: a nearer surface hides it there, or x - d falls outside the right
    image. With the right camera at +x, the hidden bands lie on the left
    side of near objects (width d_near - d_far); the band on their right
    side is a right-image disocclusion and stays unoccluded.
    """

    left: np.ndarray  # (H, W) uint8
    right: np.ndarray  # (H, W) uint8
    left_rgb: np.ndarray  # (H, W, 3) uint8, palette-mapped texture
    disparity: np.ndarray  # (H, W) float32 truth, left-based
    occlusion: np.ndarray  # (H, W) bool, True where the left pixel is occluded


def two_plane_depth(intrinsics: CameraIntrinsics, baseline: float,
                    shape, d_background: int, d_foreground: int,
                    rect=None) -> np.ndarray:
    """Depth plan with exact integer disparities for two parallel planes; disparity 0 is +inf."""
    H, W = shape
    if rect is None:
        rect = (H // 4, H * 3 // 4, W // 4, W * 3 // 4)
    disparity = np.full((H, W), d_background, dtype=np.float64)
    r0, r1, c0, c1 = rect
    disparity[r0:r1, c0:c1] = d_foreground
    with np.errstate(divide="ignore"):
        return intrinsics.focal_px * baseline / disparity


def gen_stereo_pair(depth: np.ndarray, baseline: float,
                    intrinsics: CameraIntrinsics, texture_seed: int = 0) -> StereoPair:
    """Random-dot rectified pair warped by the truth disparity of `depth`.

    Right-image pixels claimed by several left pixels keep the nearest one;
    left pixels losing that contest (or mapping outside the right image) are
    flagged in the occlusion mask. Unclaimed right pixels get independent
    noise.
    """
    depth = np.asarray(depth, dtype=float)
    if not np.all(depth > 0):
        raise ValueError("depth plan must be strictly positive")
    H, W = depth.shape
    disparity = (intrinsics.focal_px * baseline / depth).astype(np.float32)

    rng = _stream(texture_seed, _KEY_TEXTURE)
    left = rng.integers(0, 256, (H, W)).astype(np.uint8)
    palette = rng.integers(0, 256, (256, 3)).astype(np.uint8)
    fill = rng.integers(0, 256, (H, W)).astype(np.uint8)

    xs = np.arange(W)
    xr = np.rint(xs - disparity).astype(int)
    inside = (xr >= 0) & (xr < W)
    # Scatter each row's left columns onto their right-image cells far to
    # near (ascending disparity); the last write wins, so the nearest
    # surface claims each cell. winner holds the claiming left column, or -1.
    order = np.argsort(disparity, axis=1, kind="stable")
    rows, k = np.nonzero(np.take_along_axis(inside, order, axis=1))
    cols = order[rows, k]
    winner = np.full((H, W), -1)
    winner[rows, xr[rows, cols]] = cols
    right = np.where(winner >= 0, np.take_along_axis(left, winner, axis=1), fill)
    occlusion = ~inside | (np.take_along_axis(winner, np.clip(xr, 0, W - 1), axis=1) != xs)
    return StereoPair(left=left, right=right, left_rgb=palette[left],
                      disparity=disparity, occlusion=occlusion)
