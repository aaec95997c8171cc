"""Triangulate fiducial-tag centers from multiple geo-referenced observations.

Each observation is a pixel detection of a tag center in one oriented image.
The rays (origin o, unit direction d) of all images seeing a tag meet at
the least-squares midpoint, which solves the 3x3 normal equations A p = b
with A = sum (I - d d^T) and b = sum (I - d d^T) o (Hartley & Zisserman,
Multiple View Geometry, sec. 12.2). All tags are solved in one batched pass
over arrays of the observations; when a tag drops outlier rays, a second
pass solves every tag again over its kept rays.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, InsufficientObservations
from .geometry import (CameraIntrinsics, _checked, _group_sums, pixels_to_directions,
                       rotation_from_angles)

logger = logging.getLogger(__name__)

# Rays count as non-parallel when at least one pair opens more than this angle.
MIN_PAIR_ANGLE_DEG = 0.05
MAX_CONDITION = 1e8

# Point-to-ray distances beyond this multiple of the bundle RMS are dropped
# once and the solve repeated.
OUTLIER_RMS_FACTOR = 3.0


@dataclass(frozen=True)
class TagObservation:
    """Pixel detection of a tag center in one image; pixel is a read-only copy."""

    image_id: str
    tag_id: int
    pixel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixel", _checked(self.pixel, (2,), "pixel"))


@dataclass(frozen=True)
class TagLandmark:
    """Triangulated world position of one tag; position is a read-only copy."""

    tag_id: int
    position: np.ndarray
    rms_residual: float
    n_rays: int

    def __post_init__(self):
        if self.n_rays < 2:
            raise ValueError("a landmark needs at least 2 rays")
        if not self.rms_residual >= 0:
            raise ValueError("rms_residual must be non-negative")
        object.__setattr__(self, "position", _checked(self.position, (3,), "position"))


@dataclass
class TriangulationResult:
    """Successful landmarks plus per-tag failures (tag_id -> error)."""

    landmarks: list
    failures: dict


def _solve_groups(group, labels, origins, dirs):
    """Least-squares midpoint of every group of rays at once.

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
    parallel = dots.min(axis=(1, 2)) > math.cos(math.radians(MIN_PAIR_ANGLE_DEG))

    P = np.eye(3) - dirs[:, :, None] * dirs[:, None, :]
    A = _group_sums(group, P.reshape(-1, 9), len(labels)).reshape(-1, 3, 3)
    b = _group_sums(group, np.einsum("nij,nj->ni", P, origins), len(labels))
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


def triangulate_tags(observations, poses, intrinsics: CameraIntrinsics) -> TriangulationResult:
    """Triangulate every tag seen in an iterable of observations.

    `poses` maps image_id -> Pose. Raises ValueError if any observation
    references an unknown image; per-tag geometric failures are collected in
    the result instead of aborting the batch.
    Observations whose point-to-ray distance exceeds 3x the bundle RMS are
    discarded once and the tag re-solved. Landmarks come out in ascending tag
    order.
    """
    observations = list(observations)
    for obs in observations:
        if obs.image_id not in poses:
            raise ValueError(f"observation references unknown image {obs.image_id!r}")
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
    points, rms, dist, errors = _solve_groups(group, tag_ids.tolist(), origins, dirs)

    # rays farther than 3x their tag's RMS are dropped once, and every tag
    # solved again over its kept rays: each tag's sums and 3x3 solve are its
    # own, so a tag that keeps all its rays comes out with the same bits
    keep = dist <= np.maximum(OUTLIER_RMS_FACTOR * rms, 1e-12)[group]
    kept = np.bincount(group, keep, len(tag_ids)).astype(int)
    redo = (kept >= 2) & (kept < n_rays)
    if redo.any():
        for i in np.flatnonzero(redo):
            logger.info("tag %d: dropping %d outlier ray(s)", tag_ids[i], n_rays[i] - kept[i])
        rays = keep | ~redo[group]
        points, rms, _, errors = _solve_groups(group[rays], tag_ids.tolist(), origins[rays],
                                               dirs[rays])
        n_rays[redo] = kept[redo]

    failures = {int(tag_ids[g]): err for g, err in sorted(errors.items())}
    for tag_id, err in failures.items():
        logger.warning("tag %d not triangulated: %s", tag_id, err)
    ok = ~np.isnan(rms)
    landmarks = [TagLandmark(tag_id=t, position=p, rms_residual=r, n_rays=n)
                 for t, p, r, n in zip(tag_ids[ok].tolist(), points[ok], rms[ok].tolist(),
                                       n_rays[ok].tolist())]
    return TriangulationResult(landmarks=landmarks, failures=failures)
