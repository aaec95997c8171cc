import math

import numpy as np
import pytest

from tagbridge.geometry import (
    CameraIntrinsics,
    Pose,
    RigidTransform,
    angles_from_rotation,
    apply_transform,
    project_points,
    rotation_from_angles,
)
from tagbridge.triangulate import TagObservation

# The rigid move of the equivariance tests: every input is moved by it, and
# each answer is compared with the move of the unmoved problem's answer
WORLD_MOVE = RigidTransform(rotation_from_angles((0.2, -0.1, 0.7)),
                            np.array([120.0, -40.0, 15.0]))


@pytest.fixture
def aerial_cam():
    return CameraIntrinsics(f=50.0, pixel_pitch=0.0074, x0=2432.0, y0=1616.0,
                            width=4864, height=3232)


@pytest.fixture
def stereo_cam():
    return CameraIntrinsics(f=4.8, pixel_pitch=0.0048, x0=640.0, y0=512.0,
                            width=1280, height=1024)


def strip_poses(n_images, altitude=100.0, spacing=10.0, y=0.0):
    """Nadir cameras along an x-directed flight line."""
    poses = {}
    x0 = -(n_images - 1) * spacing / 2.0
    for i in range(n_images):
        poses[f"img_{i:04d}"] = Pose(
            t=np.array([x0 + i * spacing, y, altitude]),
            r=np.array([math.pi, 0.0, 0.0]),
        )
    return poses


def moved_pose(T, pose):
    """`pose` moved by the rigid transform T: centre T(t), rotation T.R R."""
    return Pose(t=apply_transform(T, pose.t),
                r=angles_from_rotation(T.rotation @ pose.rotation()))


def observe_tags(tags, poses, cam, sigma=0.0, rng=None):
    """Exact (optionally noisy) observations of tag positions in all poses."""
    obs = []
    for image_id, pose in poses.items():
        ids = sorted(tags)
        pts = np.array([tags[t] for t in ids])
        px, in_front = project_points(cam, pose, pts)
        for tag_id, p, ok in zip(ids, px, in_front):
            if not ok or not cam.in_bounds(p):
                continue
            if sigma > 0:
                p = p + rng.normal(0.0, sigma, 2)
            obs.append(TagObservation(image_id=image_id, tag_id=tag_id, pixel=p))
    return obs
