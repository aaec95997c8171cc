"""Align a locally navigated trajectory to world coordinates via co-observed tags.

The ground system measures tag centers in its own local frame; the aerial
system provides the same tags in world coordinates. Matching them by id gives
3D-3D correspondences from which a 6-DoF rigid transform is estimated in
closed form (Umeyama, TPAMI 1991, at unit scale).
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, ReflectionRequired, TooFewCorrespondences
from .geometry import (
    Pose,
    RigidTransform,
    _checked,
    _group_sums,
    angles_from_rotation,
    apply_transform,
    rotation_from_angles,
)

logger = logging.getLogger(__name__)

MIN_CORRESPONDENCES = 3
# Second-to-first principal-axis spread below this marks the set as collinear.
COLLINEARITY_RATIO = 1e-6
# A pair whose residual exceeds this multiple of the median is dropped once.
OUTLIER_MEDIAN_FACTOR = 3.0
# A reflection is required only when its sum of squared errors is below this
# fraction of the best proper rotation's (the rotation's RMS over twice its).
_REFLECTION_SSE_RATIO = 0.25


@dataclass(frozen=True)
class LocalTagSighting:
    """A tag center measured in the ground system's local frame, as a read-only copy."""

    tag_id: int
    local_vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "local_vector", _checked(self.local_vector, (3,), "local_vector"))


@dataclass(frozen=True)
class Trajectory(Sequence):
    """Timestamped poses stored as columns, read as a sequence of Pose.

    Row i of `t` (N, 3) and `r` (N, 3) holds the projection center and the
    (omega, phi, kappa) angles at timestamps[i]; timestamps strictly
    increase. All three are read-only copies. Indexing builds a Pose only for
    the index read.
    """

    timestamps: np.ndarray
    t: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        ts = _checked(self.timestamps, (None,), "timestamps")
        if not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "t", _checked(self.t, (len(ts), 3), "t"))
        object.__setattr__(self, "r", _checked(self.r, (len(ts), 3), "r"))

    def __len__(self):
        return len(self.timestamps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        return Pose(t=self.t[i], r=self.r[i])

    @property
    def poses(self) -> "Trajectory":
        """The poses; the trajectory is itself their sequence."""
        return self

    def positions(self) -> np.ndarray:
        return self.t


@dataclass
class Correspondences:
    """Matched (local, world) point pairs, one per tag, plus unmatched tag ids."""

    tag_ids: np.ndarray
    local: np.ndarray
    world: np.ndarray
    unmatched: list

    def __len__(self):
        return len(self.tag_ids)


def collect_correspondences(sightings, landmarks) -> Correspondences:
    """Match sightings to landmarks by tag id.

    Multiple sightings of one tag are averaged in the local frame. Sightings
    of tags without a triangulated landmark are skipped and reported in
    `unmatched` (and the log).
    """
    tags = np.array([s.tag_id for s in sightings], dtype=int)
    vectors = np.array([s.local_vector for s in sightings], dtype=float).reshape(-1, 3)
    tag_ids, group, counts = np.unique(tags, return_inverse=True, return_counts=True)
    local = _group_sums(group, vectors, len(tag_ids)) / counts[:, None]
    positions = {lm.tag_id: lm.position for lm in landmarks}
    matched = np.isin(tag_ids, list(positions))
    unmatched = tag_ids[~matched].tolist()
    if unmatched:
        logger.warning("sightings of %d tag(s) without landmarks skipped: %s",
                       len(unmatched), unmatched)
    return Correspondences(
        tag_ids=tag_ids[matched],
        local=local[matched],
        world=np.array([positions[t] for t in tag_ids[matched].tolist()]).reshape(-1, 3),
        unmatched=unmatched,
    )


def _collinear(points) -> bool:
    """True when (N, 3) points coincide or their spread ratio is at most COLLINEARITY_RATIO."""
    spread = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    return spread[0] <= 0 or spread[1] / spread[0] <= COLLINEARITY_RATIO


def _procrustes(local, world):
    centroid_l = local.mean(axis=0)
    centroid_w = world.mean(axis=0)
    lc = local - centroid_l
    wc = world - centroid_w

    if _collinear(local):
        raise DegenerateGeometry("correspondences are collinear or coincident")

    H = lc.T @ wc
    U, S, Vt = np.linalg.svd(H)
    det = np.linalg.det(Vt.T @ U.T)
    sign = np.array([1.0, 1.0, 1.0 if det >= 0 else -1.0])
    R = (Vt.T * sign) @ U.T
    # The sign-corrected rotation (Umeyama, TPAMI 1991) stands unless the
    # reflection fits far better; below the spread ratio both fits agree to
    # rounding.
    if det < 0 and S[2] > COLLINEARITY_RATIO * S[0]:
        sse_rotation = np.sum((lc @ R.T - wc) ** 2)
        sse_reflection = np.sum((lc @ U @ Vt - wc) ** 2)
        if sse_reflection < _REFLECTION_SSE_RATIO * sse_rotation:
            raise ReflectionRequired(
                "correspondences demand a reflection; check tag ids / coordinates"
            )

    return RigidTransform(rotation=R, translation=centroid_w - R @ centroid_l)


def estimate_rigid_transform(local, world):
    """Closed-form least-squares rigid transform mapping local points onto world points.

    `local` and `world` are (N, 3) arrays of finite coordinates, else
    ValueError. Returns (RigidTransform, per-pair world-frame residual
    distances). If any residual exceeds 3x the median, those pairs are
    dropped and the solve is repeated once (guards against a tag plate that
    moved between surveys).
    """
    local = _checked(local, (None, 3), "local")
    world = _checked(world, (None, 3), "world")
    if local.shape != world.shape:
        raise ValueError("local and world must have matching shapes")
    if len(local) < MIN_CORRESPONDENCES:
        raise TooFewCorrespondences(
            f"{len(local)} pair(s); at least {MIN_CORRESPONDENCES} tags required"
        )

    T = _procrustes(local, world)
    residuals = np.linalg.norm(apply_transform(T, local) - world, axis=1)

    threshold = max(OUTLIER_MEDIAN_FACTOR * np.median(residuals), 1e-12)
    keep = residuals <= threshold
    if not keep.all() and keep.sum() >= MIN_CORRESPONDENCES:
        logger.info("re-solving without %d outlier pair(s)", int((~keep).sum()))
        T = _procrustes(local[keep], world[keep])
        residuals = np.linalg.norm(apply_transform(T, local) - world, axis=1)
    return T, residuals


def apply_to_trajectory(T: RigidTransform, traj: Trajectory) -> Trajectory:
    """Map every pose through T: positions transformed, rotations left-multiplied by T's."""
    R = T.rotation[None]
    t = (R @ traj.t[:, :, None])[:, :, 0] + T.translation
    r = angles_from_rotation(R @ rotation_from_angles(traj.r))
    return Trajectory(timestamps=traj.timestamps, t=t, r=r)

