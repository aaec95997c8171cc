"""Triangulate fiducial-tag centers from multiple geo-referenced observations.

Each observation is a pixel detection of a tag center in one oriented image.
The rays (origin o, unit direction d, weight w) of all images seeing a tag
meet at the weighted least-squares midpoint, which solves the 3x3 normal
equations A p = b with A = sum w (I - d d^T) and b = sum w (I - d d^T) o
(Hartley & Zisserman, Multiple View Geometry, sec. 12.2). All tags are
solved in one batched pass over arrays of the observations; the outlier
re-solve is a second pass over only the tags that drop rays.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, InsufficientObservations, MissingPose
from .geometry import CameraIntrinsics, pixels_to_directions, rotation_from_angles

logger = logging.getLogger(__name__)

# Rays count as non-parallel when at least one pair opens more than this angle.
MIN_PAIR_ANGLE_DEG = 0.05
MAX_CONDITION = 1e8

# Point-to-ray distances beyond this multiple of the bundle RMS are dropped
# once and the solve repeated.
OUTLIER_RMS_FACTOR = 3.0


@dataclass(frozen=True)
class TagObservation:
    """Pixel detection of a tag center in one image."""

    image_id: str
    tag_id: int
    pixel: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixel, dtype=float)
        if px.shape != (2,) or not np.all(np.isfinite(px)):
            raise ValueError("pixel must be a finite 2-vector")
        px.flags.writeable = False
        object.__setattr__(self, "pixel", px)


@dataclass(frozen=True)
class TagLandmark:
    """Triangulated world position of one tag."""

    tag_id: int
    position: np.ndarray
    rms_residual: float
    n_rays: int

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,):
            raise ValueError("position must be a 3-vector")
        if self.n_rays < 2:
            raise ValueError("a landmark needs at least 2 rays")
        if self.rms_residual < 0:
            raise ValueError("rms_residual must be non-negative")
        pos.flags.writeable = False
        object.__setattr__(self, "position", pos)


@dataclass
class TriangulationResult:
    """Successful landmarks plus per-tag failures (tag_id -> error)."""

    landmarks: list
    failures: dict


def _solve_groups(group, labels, origins, dirs, weights):
    """Weighted midpoint of every group of rays at once.

    `group` (M,) gives each ray's group index in ascending order; `labels`
    names the groups in InsufficientObservations. Returns (points (G, 3),
    rms (G,), per-ray point-to-ray distances (M,), errors), where `errors`
    maps the index of each group with fewer than 2 rays or a degenerate
    bundle to its error; such a group's point, rms and distances are NaN.
    """
    counts = np.bincount(group, minlength=len(labels))
    width = int(counts.max())
    # anti-parallel directions span the same line, so compare |dot|; the
    # padding counts as parallel, as does each ray with itself
    padded = np.zeros((len(labels), width, 3))
    padded[group, np.arange(len(group)) - (np.cumsum(counts) - counts)[group]] = dirs
    dots = np.abs(padded @ padded.transpose(0, 2, 1))
    real = np.arange(width) < counts[:, None]
    dots[~(real[:, :, None] & real[:, None, :])] = 1.0
    parallel = dots.min(axis=(1, 2), initial=1.0) > math.cos(math.radians(MIN_PAIR_ANGLE_DEG))

    # np.add.at adds each group's rows in ray order, so a group's A and b, and
    # so its point, do not depend on which other groups share the call
    Pw = (np.eye(3) - dirs[:, :, None] * dirs[:, None, :]) * weights[:, None, None]
    A = np.zeros((len(labels), 3, 3))
    np.add.at(A, group, Pw)
    b = np.zeros((len(labels), 3))
    np.add.at(b, group, np.einsum("nij,nj->ni", Pw, origins))
    cond = np.linalg.cond(A)
    ok = (counts >= 2) & ~parallel & (cond <= MAX_CONDITION)
    points = np.full((len(labels), 3), np.nan)
    points[ok] = np.linalg.solve(A[ok], b[ok][:, :, None])[:, :, 0]

    diff = points[group] - origins
    along = np.sum(diff * dirs, axis=1)
    dist = np.linalg.norm(diff - along[:, None] * dirs, axis=1)
    with np.errstate(invalid="ignore"):
        rms = np.sqrt(np.bincount(group, dist ** 2, len(labels)) / counts)
    errors = {}
    for g in np.flatnonzero(~ok).tolist():
        if counts[g] < 2:
            errors[g] = InsufficientObservations(tag_id=labels[g], n=int(counts[g]))
        elif parallel[g]:
            errors[g] = DegenerateGeometry(
                f"all ray pairs within {MIN_PAIR_ANGLE_DEG} deg of parallel")
        else:
            errors[g] = DegenerateGeometry(
                f"near-parallel ray bundle (condition number {cond[g]:.2e})")
    return points, rms, dist, errors


def triangulate_point(origins, dirs, weights=None):
    """Weighted least-squares intersection of rays.

    `origins` and `dirs` are (N, 3) arrays of ray origins and unit
    directions. Returns (position, rms_residual) where rms_residual is the
    plain RMS of point-to-ray perpendicular distances. Raises
    InsufficientObservations for fewer than 2 rays and DegenerateGeometry for
    a near-parallel bundle.
    """
    origins = np.asarray(origins, dtype=float).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    n = len(origins)
    if dirs.shape != origins.shape:
        raise ValueError("one direction per origin required")
    if not (np.all(np.isfinite(origins))
            and np.all(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) <= 1e-12)):
        raise ValueError("origins must be finite and directions unit vectors")
    weights = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (n,) or np.any(weights <= 0):
        raise ValueError("weights must be positive, one per ray")

    points, rms, _, errors = _solve_groups(np.zeros(n, dtype=np.intp), [None], origins, dirs,
                                           weights)
    if errors:
        raise errors[0]
    return points[0], float(rms[0])


def triangulate_tags(observations, poses, intrinsics: CameraIntrinsics) -> TriangulationResult:
    """Triangulate every tag seen in the observation list.

    `poses` maps image_id -> Pose. Raises MissingPose if any observation
    references an unknown image; per-tag geometric failures are collected in
    the result instead of aborting the batch. Every ray has unit weight.
    Observations whose point-to-ray distance exceeds 3x the bundle RMS are
    discarded once and the tag re-solved. Landmarks come out in ascending tag
    order.
    """
    for obs in observations:
        if obs.image_id not in poses:
            raise MissingPose(obs.image_id)
    if not observations:
        return TriangulationResult(landmarks=[], failures={})

    # one row per observation, grouped by tag in input order within a tag
    obs = sorted(observations, key=lambda o: o.tag_id)
    tag_ids, group, n_rays = np.unique([o.tag_id for o in obs], return_inverse=True,
                                       return_counts=True)
    images = {}
    image = np.array([images.setdefault(o.image_id, len(images)) for o in obs])
    used = [poses[image_id] for image_id in images]
    origins = np.array([p.t for p in used])[image]
    rotations = rotation_from_angles(np.array([p.r for p in used]))[image]
    dirs = pixels_to_directions(intrinsics, rotations,
                                np.concatenate([o.pixel for o in obs]).reshape(-1, 2))
    weights = np.ones(len(obs))
    points, rms, dist, errors = _solve_groups(group, tag_ids.tolist(), origins, dirs, weights)

    # rays farther than 3x their tag's RMS are dropped once, and those tags
    # solved again in a second batched pass over their kept rays
    keep = dist <= np.maximum(OUTLIER_RMS_FACTOR * rms, 1e-12)[group]
    kept = np.bincount(group, keep, len(tag_ids)).astype(int)
    redo = (kept >= 2) & (kept < n_rays)
    if redo.any():
        again = keep & redo[group]
        redone, sub = np.unique(group[again], return_inverse=True)
        for i in redone:
            logger.info("tag %d: dropping %d outlier ray(s)", tag_ids[i], n_rays[i] - kept[i])
        points2, rms2, _, errors2 = _solve_groups(sub, tag_ids[redone].tolist(), origins[again],
                                                  dirs[again], weights[again])
        points[redone], rms[redone], n_rays[redone] = points2, rms2, kept[redone]
        errors.update({int(redone[g]): err for g, err in errors2.items()})

    failures = {int(tag_ids[g]): err for g, err in sorted(errors.items())}
    for tag_id, err in failures.items():
        logger.warning("tag %d not triangulated: %s", tag_id, err)
    ok = ~np.isnan(rms)
    landmarks = [TagLandmark(tag_id=t, position=p, rms_residual=r, n_rays=n)
                 for t, p, r, n in zip(tag_ids[ok].tolist(), points[ok], rms[ok].tolist(),
                                       n_rays[ok].tolist())]
    return TriangulationResult(landmarks=landmarks, failures=failures)
