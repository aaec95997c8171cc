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

from .errors import InvalidSpec
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
    world_from_local: RigidTransform = None
    allow_collinear_tags: bool = False

    def __post_init__(self):
        if self.tags is None:
            object.__setattr__(self, "tags", default_tag_layout())
        if self.flight.altitude <= 0:
            raise InvalidSpec("flight altitude must be positive")
        if not 0.0 <= self.flight.overlap < 1.0:
            raise InvalidSpec("overlap must be in [0, 1)")
        if self.flight.strips < 1:
            raise InvalidSpec("at least one flight strip required")
        if self.walk.speed <= 0 or self.walk.rate_hz <= 0:
            raise InvalidSpec("walk speed and rate must be positive")
        if len(self.walk.waypoints) < 2:
            raise InvalidSpec("walk needs at least two waypoints")
        if self.n_tie_points < 0:
            raise InvalidSpec("n_tie_points must be non-negative")
        if len(self.tags) >= 3 and not self.allow_collinear_tags:
            pts = np.array(list(self.tags.values()), dtype=float)
            centered = pts - pts.mean(axis=0)
            s = np.linalg.svd(centered, compute_uv=False)
            if s[0] <= 0 or s[1] / s[0] <= 1e-6:
                raise InvalidSpec(
                    "tags lie on a single line; set allow_collinear_tags for negative tests")


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
    if total <= 0:
        raise InvalidSpec("walk waypoints are coincident")
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

    camera_poses = {}
    idx = 0
    for y in ys:
        for x in xs:
            camera_poses[f"img_{idx:04d}"] = Pose(
                t=np.array([x, y, spec.flight.altitude]),
                r=np.array([math.pi, 0.0, 0.0]))
            idx += 1

    rng_tp = _stream(spec.seed, _KEY_TIE_POINTS)
    tie_points = {}
    for i in range(spec.n_tie_points):
        tie_points[i] = np.array([
            rng_tp.uniform(lo[0], hi[0]),
            rng_tp.uniform(lo[1], hi[1]),
            rng_tp.uniform(0.0, 3.0),
        ])

    if spec.world_from_local is not None:
        world_from_local = spec.world_from_local
    else:
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
    image, so generation order cannot change the output.
    """
    tag_ids = sorted(scene.tags)
    tie_ids = sorted(scene.tie_points)
    tag_pts = np.array([scene.tags[t] for t in tag_ids]).reshape(-1, 3)
    tie_pts = np.array([scene.tie_points[t] for t in tie_ids]).reshape(-1, 3)

    observations = []
    tie_measurements = []
    for img_index, image_id in enumerate(sorted(scene.camera_poses)):
        pose = scene.camera_poses[image_id]
        rng = _stream(seed, _KEY_OBSERVATIONS, img_index)
        if tag_ids:
            px, ok = project_points(intrinsics, pose, tag_pts)
            noise = gaussian(rng, (len(tag_ids), 2)) * pixel_sigma
            for i, tag_id in enumerate(tag_ids):
                if ok[i] and intrinsics.in_bounds(px[i]):
                    observations.append(TagObservation(
                        image_id=image_id, tag_id=tag_id, pixel=px[i] + noise[i]))
        if tie_ids:
            px, ok = project_points(intrinsics, pose, tie_pts)
            noise = gaussian(rng, (len(tie_ids), 2)) * pixel_sigma
            for i, pid in enumerate(tie_ids):
                if ok[i] and intrinsics.in_bounds(px[i]):
                    tie_measurements.append((image_id, pid, px[i] + noise[i]))
    return observations, tie_measurements


def render_sightings(scene: Scene, sigma_m: float = 0.0, seed: int = 0):
    """Local-frame tag sightings as the ground rig would measure them.

    Each tag is sighted once, stamped onto the earliest trajectory samples
    (one tag per sample, in tag-id order).
    """
    inv = scene.world_from_local.inverse()
    ts = scene.trajectory_local.timestamps
    sightings = []
    for i, tag_id in enumerate(sorted(scene.tags)):
        rng = _stream(seed, _KEY_SIGHTINGS, i)
        local = apply_transform(inv, scene.tags[tag_id])
        local = local + gaussian(rng, (3,)) * sigma_m
        stamp = float(ts[min(i, len(ts) - 1)])
        sightings.append(LocalTagSighting(tag_id=tag_id, local_vector=local,
                                          timestamp=stamp))
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
    """Depth plan producing exact integer disparities for two parallel planes."""
    H, W = shape
    if rect is None:
        rect = (H // 4, H * 3 // 4, W // 4, W * 3 // 4)
    depth = np.full((H, W), intrinsics.focal_px * baseline / d_background)
    r0, r1, c0, c1 = rect
    depth[r0:r1, c0:c1] = intrinsics.focal_px * baseline / d_foreground
    return depth


def gen_stereo_pair(depth: np.ndarray, baseline: float,
                    intrinsics: CameraIntrinsics, texture_seed: int = 0) -> StereoPair:
    """Random-dot rectified pair warped by the truth disparity of `depth`.

    Right-image pixels claimed by several left pixels keep the nearest one;
    left pixels losing that contest (or mapping outside the right image) are
    flagged in the occlusion mask. Unclaimed right pixels get independent
    noise.
    """
    depth = np.asarray(depth, dtype=float)
    if np.any(depth <= 0):
        raise InvalidSpec("depth plan must be strictly positive")
    H, W = depth.shape
    disparity = (intrinsics.focal_px * baseline / depth).astype(np.float32)

    rng = _stream(texture_seed, _KEY_TEXTURE)
    left = rng.integers(0, 256, (H, W)).astype(np.uint8)
    palette = rng.integers(0, 256, (256, 3)).astype(np.uint8)
    fill = rng.integers(0, 256, (H, W)).astype(np.uint8)

    right = fill.copy()
    occlusion = np.zeros((H, W), dtype=bool)
    xs = np.arange(W)
    for y in range(H):
        d = disparity[y]
        xr = np.rint(xs - d).astype(int)
        inside = (xr >= 0) & (xr < W)
        # nearest surface (largest disparity) wins each right-image cell
        order = np.argsort(d, kind="stable")  # ascending: far first, near last
        right[y, xr[order][inside[order]]] = left[y, order][inside[order]]
        winner = np.full(W, -1, dtype=int)
        winner[xr[order][inside[order]]] = order[inside[order]]
        claimed = winner[xr[inside]] == xs[inside]
        occ_row = np.ones(W, dtype=bool)
        occ_row[xs[inside][claimed]] = False
        occlusion[y] = occ_row
    return StereoPair(left=left, right=right, left_rgb=palette[left],
                      disparity=disparity, occlusion=occlusion)
