"""tagbridge: geo-reference fiducial tags from the air, align a locally
navigated trajectory to them, and fuse dense stereo geometry into one
world-frame point cloud."""

from .geometry import (
    CameraIntrinsics,
    Pose,
    RigidTransform,
    angles_from_rotation,
    apply_transform,
    project,
    project_points,
    rotation_from_angles,
)

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics",
    "Pose",
    "RigidTransform",
    "angles_from_rotation",
    "apply_transform",
    "project",
    "project_points",
    "rotation_from_angles",
    "__version__",
]
