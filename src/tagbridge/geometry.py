"""Camera model, rotation conventions, projection, and rigid transforms.

Conventions used throughout the toolkit:

* World frame: right-handed, Z up, metric (UTM-style easting/northing/height).
* Rotation angles (omega, phi, kappa) give R = Rz(kappa) @ Ry(phi) @ Rx(omega),
  and R maps camera-frame vectors into the world frame. `Pose` stores the
  angles; the bundle perturbs R on the right, R exp([delta]x), delta in the
  camera frame.
* Camera frame: +Z is the viewing axis, +X points right (increasing pixel u),
  +Y points down (increasing pixel v).
* Pixel origin at the top-left, pixel centers on integer coordinates.
* Pixels are those of an ideal pinhole camera with calibrated interior
  orientation: any lens correction is applied once, to the detector's input.
* Angles are radians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Depth below which a point counts as behind the camera (meters).
BEHIND_CAMERA_EPS = 1e-9


def _checked(x, shape, name):
    """Read-only, C-ordered float64 copy of `x`, checked to have `shape` and finite values.

    A None entry in `shape` accepts any length along that axis. C order keeps
    products with the copy independent of the caller's memory layout.
    """
    a = np.array(x, dtype=float, order="C")
    if a.shape != shape and (a.ndim != len(shape)
                             or any(n not in (None, m) for n, m in zip(shape, a.shape))):
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError(f"{name} must be finite")
    a.flags.writeable = False
    return a


def _group_sums(group, values, n):
    """(n, k) float64 sums of the (M, k) `values` rows by their (M,) `group` in [0, n).

    Each group's rows are added in row order from zero, whatever the other
    groups hold; an empty group sums to zero. Integers sum exactly below 2**53.
    One `np.bincount` per column fills its column of the result.
    """
    sums = np.empty((n, values.shape[1]))
    for j, column in enumerate(values.T):
        sums[:, j] = np.bincount(group, column, n)
    return sums


@dataclass(frozen=True)
class CameraIntrinsics:
    """Interior orientation: focal length, principal point and sensor size.

    f and pixel_pitch are in millimeters; x0/y0 in pixels.
    """

    f: float
    pixel_pitch: float
    x0: float
    y0: float
    width: int
    height: int

    def __post_init__(self):
        if not 0 < self.f < np.inf:
            raise ValueError("focal length must be positive and finite")
        if not 0 < self.pixel_pitch < np.inf:
            raise ValueError("pixel pitch must be positive and finite")
        if not all(size >= 1 and float(size).is_integer() for size in (self.width, self.height)):
            raise ValueError("sensor must be a finite, whole number of px, at least 1x1")
        if not (0 <= self.x0 < self.width and 0 <= self.y0 < self.height):
            raise ValueError("principal point must lie inside the sensor")

    @property
    def focal_px(self) -> float:
        return self.f / self.pixel_pitch

    def in_bounds(self, pixel):
        """True where a (..., 2) pixel falls on the physical sensor area."""
        u, v = np.moveaxis(np.asarray(pixel, dtype=float), -1, 0)
        return (-0.5 <= u) & (u < self.width - 0.5) & (-0.5 <= v) & (v < self.height - 0.5)


@dataclass(frozen=True)
class Pose:
    """Exterior orientation: center t and angles r = (omega, phi, kappa), as read-only copies."""

    t: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", _checked(self.t, (3,), "t"))
        object.__setattr__(self, "r", _checked(self.r, (3,), "r"))

    def rotation(self) -> np.ndarray:
        """Camera-to-world rotation matrix."""
        return rotation_from_angles(self.r)


@dataclass(frozen=True)
class RigidTransform:
    """Rigid transform p -> rotation @ p + translation (read-only array copies)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = _checked(self.rotation, (3, 3), "rotation")
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-10:
            raise ValueError("rotation must be orthonormal")
        if np.linalg.det(R) < 0:
            raise ValueError("rotation must be proper (det +1)")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", _checked(self.translation, (3,), "translation"))

    def inverse(self) -> "RigidTransform":
        Rinv = self.rotation.T
        return RigidTransform(rotation=Rinv, translation=-Rinv @ self.translation)

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous matrix."""
        M = np.eye(4)
        M[:3, :3] = self.rotation
        M[:3, 3] = self.translation
        return M


def rotation_from_angles(r) -> np.ndarray:
    """Rotation matrix R = Rz(kappa) @ Ry(phi) @ Rx(omega).

    Accepts a single (omega, phi, kappa) triple or an (N, 3) array of them;
    returns (3, 3) or (N, 3, 3) accordingly.
    """
    r = np.asarray(r, dtype=float)
    single = r.ndim == 1
    angles = np.atleast_2d(r)
    co, so = np.cos(angles[:, 0]), np.sin(angles[:, 0])
    cp, sp = np.cos(angles[:, 1]), np.sin(angles[:, 1])
    ck, sk = np.cos(angles[:, 2]), np.sin(angles[:, 2])
    R = np.empty((angles.shape[0], 3, 3))
    R[:, 0, 0] = ck * cp
    R[:, 0, 1] = -sk * co + ck * sp * so
    R[:, 0, 2] = sk * so + ck * sp * co
    R[:, 1, 0] = sk * cp
    R[:, 1, 1] = ck * co + sk * sp * so
    R[:, 1, 2] = -ck * so + sk * sp * co
    R[:, 2, 0] = -sp
    R[:, 2, 1] = cp * so
    R[:, 2, 2] = cp * co
    return R[0] if single else R


def angles_from_rotation(R) -> np.ndarray:
    """Inverse of rotation_from_angles (phi in [-pi/2, pi/2]).

    Accepts one (3, 3) matrix or an (N, 3, 3) stack of them; returns (3,) or
    (N, 3) accordingly. phi = atan2(sin phi, |cos phi|) keeps full accuracy
    up to the poles; at the gimbal-locked poles (|cos phi| < 1e-12) omega is
    set to zero.
    """
    R = np.asarray(R, dtype=float)
    single = R.ndim == 2
    R = R.reshape(-1, 3, 3)
    cp = np.hypot(R[:, 0, 0], R[:, 1, 0])
    pole = cp < 1e-12
    r01, r02 = R[:, 0, 1], R[:, 0, 2]
    kappa_pole = np.where(R[:, 2, 0] < 0, -np.arctan2(r01, r02), np.arctan2(-r01, -r02))
    angles = np.empty((len(R), 3))
    angles[:, 0] = np.where(pole, 0.0, np.arctan2(R[:, 2, 1], R[:, 2, 2]))
    angles[:, 1] = np.arctan2(-R[:, 2, 0], cp)
    angles[:, 2] = np.where(pole, kappa_pole, np.arctan2(R[:, 1, 0], R[:, 0, 0]))
    return angles[0] if single else angles


def project_points(intrinsics: CameraIntrinsics, pose: Pose, points: np.ndarray):
    """Project (N, 3) world points; returns ((N, 2) pixels, (N,) in-front mask).

    A point is in front when its camera-frame depth exceeds BEHIND_CAMERA_EPS;
    pixels of the others are NaN.
    """
    points = np.asarray(points, dtype=float)
    R = pose.rotation()
    cam = (points - pose.t) @ R  # row-vector form of R.T @ (p - t)
    depth = cam[:, 2]
    in_front = depth > BEHIND_CAMERA_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = cam[:, :2] / depth[:, None]
    norm = np.where(in_front[:, None], norm, np.nan)
    return (intrinsics.x0, intrinsics.y0) + intrinsics.focal_px * norm, in_front


def _pixels_to_normalized(intrinsics: CameraIntrinsics, pixels: np.ndarray) -> np.ndarray:
    """Normalized image coordinates of (N, 2) float pixel coordinates."""
    return (pixels - (intrinsics.x0, intrinsics.y0)) / intrinsics.focal_px


def pixels_to_directions(intrinsics: CameraIntrinsics, rotation, pixels: np.ndarray) -> np.ndarray:
    """World-frame unit viewing directions for (N, 2) pixel coordinates.

    `rotation` is the camera-to-world matrix (Pose.rotation()): one (3, 3)
    for every pixel, or an (N, 3, 3) stack with one per pixel.
    """
    norm = _pixels_to_normalized(intrinsics, np.asarray(pixels, dtype=float))
    dirs_cam = np.concatenate([norm, np.ones((len(norm), 1))], axis=1)
    dirs_world = (np.asarray(rotation, dtype=float) @ dirs_cam[:, :, None])[:, :, 0]
    return dirs_world / np.linalg.norm(dirs_world, axis=1, keepdims=True)


def apply_transform(T: RigidTransform, points: np.ndarray) -> np.ndarray:
    """Map a 3-vector or (N, 3) array through R @ p + t."""
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        return T.rotation @ p + T.translation
    return p @ T.rotation.T + T.translation
