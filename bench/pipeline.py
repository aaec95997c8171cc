"""Workload presets, synthetic inputs, the co-registration pipeline and its scoring.

One pipeline run chains the public tagbridge calls in the order a user would:

1. aerial: `triangulate_tags` (tags and tie points, from noisy poses) seeds a
   bundle `solve`; the refined tags are matched to the ground rig's
   sightings (`collect_correspondences`, `estimate_rigid_transform`), the
   walk is moved into the world frame (`apply_to_trajectory`) and the tags
   are scored by `assess`;
2. stereo: each frame runs census, cost and aggregation for the left and the
   right base, then `select_disparity` with the left-right check; the
   disparities become colored clouds on the registered walk poses and are
   fused with `accumulate` and `filter_voxels`;
3. recolor: a map is fused from one two-plane frame's truth disparity and
   its voxel centroids are colored with `colorize_with_occlusion` from an
   RGB camera offset sideways, so the near plane hides part of the far one.

Every workload runs all three parts; the presets size them so that a
different layer dominates each workload (see README.md).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree

from tagbridge.assess import assess
from tagbridge.bundle import BundleProblem, solve
from tagbridge.fusion import VoxelGrid, accumulate, colorize_with_occlusion, filter_voxels
from tagbridge.geometry import CameraIntrinsics, Pose, project_points
from tagbridge.register import (
    apply_to_trajectory,
    collect_correspondences,
    estimate_rigid_transform,
)
from tagbridge.sgm import (
    FLAG_LR_FAILED,
    FLAG_OUT_OF_RANGE,
    FLAG_UNIQUENESS_FAILED,
    DisparityMap,
    SgmParams,
    aggregate_costs,
    census_bits,
    census_transform,
    disparity_to_cloud,
    matching_cost_volume,
    select_disparity,
)
from tagbridge.synth import (
    FlightPlan,
    SceneSpec,
    StereoPair,
    default_tag_layout,
    gen_scene,
    gen_stereo_pair,
    render_observations,
    render_sightings,
    two_plane_depth,
)
from tagbridge.triangulate import TagObservation, triangulate_tags

# Same camera as gen_scene's default: 50 mm, 7.4 um pixels, 16 MPix.
AERIAL_CAM = CameraIntrinsics(f=50.0, pixel_pitch=0.0074, x0=2432.0, y0=1616.0,
                              width=4864, height=3232)
PIXEL_SIGMA = 0.5
SIGHTING_SIGMA_M = 0.01
# Initial aerial orientation error the bundle has to remove (one anchor exact).
POSE_SIGMA_M = 0.05
POSE_SIGMA_RAD = 3e-4
# Tie points share the bundle's point ids with the tags, offset past them.
TIE_ID_OFFSET = 100_000

STEREO_PITCH_MM = 0.0048
STEREO_FOCAL_PX = 400.0
BASELINE_M = 0.2
VOXEL_M = 0.05
MIN_POINTS = 2
# Recolor frame: planes at 5 m and 2 m; the RGB camera sits this share of
# the image width (measured on the near plane) to the side of the frame.
RECOLOR_DISPARITIES = (16, 40)
RGB_OFFSET_SHARE = 0.3

# Benchmark-owned random streams, keyed next to the workload seed.
_KEY_LAYOUT, _KEY_POSES, _KEY_RGB = 1, 2, 3


@dataclass(frozen=True)
class Preset:
    n_tags: int  # on an 8-column grid with seeded jitter; 0: synth's default seven
    n_tie_points: int
    strips: int
    stereo_frames: int
    stereo_shape: tuple  # (H, W) px
    n_disparities: int
    recolor_shape: tuple  # (H, W) px
    instances: int  # independent inputs per benchmark run, cycled by the run loop


PRESETS = {
    # bundle dominant; stereo and recolor small
    "aerial_block": Preset(n_tags=40, n_tie_points=100, strips=3, stereo_frames=1,
                           stereo_shape=(96, 128), n_disparities=48, recolor_shape=(72, 96),
                           instances=12),
    # SGM and fusion writes dominant; small aerial block for registration
    "walk_stereo": Preset(n_tags=0, n_tie_points=8, strips=1, stereo_frames=2,
                          stereo_shape=(240, 320), n_disparities=64, recolor_shape=(72, 96),
                          instances=6),
    # fusion reads (voxel-walk occlusion queries) dominant
    "fusion_recolor": Preset(n_tags=0, n_tie_points=8, strips=1, stereo_frames=1,
                             stereo_shape=(96, 128), n_disparities=48,
                             recolor_shape=(180, 240), instances=8),
    # for the benchmark's own tests
    "tiny": Preset(n_tags=0, n_tie_points=4, strips=1, stereo_frames=1,
                   stereo_shape=(32, 64), n_disparities=16, recolor_shape=(24, 32),
                   instances=2),
}


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


def instance_seed(seed: int, k: int) -> int:
    """Seed of the k-th input instance of a benchmark run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def stereo_camera(shape) -> CameraIntrinsics:
    H, W = shape
    return CameraIntrinsics(f=STEREO_FOCAL_PX * STEREO_PITCH_MM, pixel_pitch=STEREO_PITCH_MM,
                            x0=(W - 1) / 2.0, y0=(H - 1) / 2.0, width=W, height=H)


def near_rect(shape) -> tuple:
    """Near-plane rectangle (r0, r1, c0, c1) of a two-plane frame: its middle half."""
    H, W = shape
    return (H // 4, H * 3 // 4, W // 4, W * 3 // 4)


@dataclass
class StereoFrame:
    pair: StereoPair
    cam: CameraIntrinsics
    params: SgmParams
    pose_index: int  # walk sample the frame is taken at


@dataclass
class RecolorFrame:
    truth_map: DisparityMap  # all-valid truth disparity
    cam: CameraIntrinsics
    rgb: np.ndarray  # (H, W, 3) raster of the RGB camera
    pose: Pose  # true walk pose, shifted by a seeded sub-voxel offset
    rgb_pose: Pose  # same orientation, moved along the frame camera's +X


@dataclass
class Inputs:
    scene: object  # synth.Scene
    observations: list  # TagObservation, tags and offset tie ids
    measurements: list  # (image_id, point_id, pixel) for the bundle
    initial_poses: dict
    anchor: str
    sightings: list
    frames: list  # StereoFrame
    recolor: RecolorFrame
    synth_s: dict  # seconds per synth call kind


def tag_layout(n: int, rng: np.random.Generator) -> dict:
    """n tags on an 8-column, 4 m grid centred on the origin, jittered by up to 0.5 m."""
    cols = 8
    rows = math.ceil(n / cols)
    tags = {}
    for i in range(n):
        r, c = divmod(i, cols)
        base = np.array([4.0 * (c - (cols - 1) / 2.0), 4.0 * (r - (rows - 1) / 2.0), 0.0])
        jitter = np.array([*rng.uniform(-0.5, 0.5, 2), rng.uniform(0.0, 0.3)])
        tags[i + 1] = base + jitter
    return tags


def build_inputs(preset: Preset, seed: int) -> Inputs:
    """Every input of one workload, as a pure function of the preset and seed."""
    synth_s = {"gen_scene": 0.0, "render_observations": 0.0, "gen_stereo_pair": 0.0}
    tags = (tag_layout(preset.n_tags, _rng(seed, _KEY_LAYOUT)) if preset.n_tags
            else default_tag_layout())
    spec = SceneSpec(tags=tags,
                     flight=FlightPlan(altitude=100.0, overlap=0.6, strips=preset.strips),
                     seed=seed, n_tie_points=preset.n_tie_points)
    t = perf_counter()
    scene = gen_scene(spec, AERIAL_CAM)
    synth_s["gen_scene"] += perf_counter() - t

    t = perf_counter()
    tag_obs, ties = render_observations(scene, AERIAL_CAM, pixel_sigma=PIXEL_SIGMA, seed=seed)
    sightings = render_sightings(scene, sigma_m=SIGHTING_SIGMA_M, seed=seed)
    synth_s["render_observations"] += perf_counter() - t

    observations = list(tag_obs) + [
        TagObservation(image_id=img, tag_id=TIE_ID_OFFSET + pid, pixel=px)
        for img, pid, px in ties]
    measurements = [(o.image_id, o.tag_id, o.pixel) for o in observations]

    rng = _rng(seed, _KEY_POSES)
    ids = sorted(scene.camera_poses)
    anchor = ids[0]
    initial_poses = {anchor: scene.camera_poses[anchor]}
    for image_id in ids[1:]:
        pose = scene.camera_poses[image_id]
        initial_poses[image_id] = Pose(t=pose.t + rng.normal(0.0, POSE_SIGMA_M, 3),
                                       r=pose.r + rng.normal(0.0, POSE_SIGMA_RAD, 3))

    n_walk = len(scene.trajectory_local)
    stations = np.linspace(0, n_walk - 1, preset.stereo_frames + 2).round().astype(int)
    D = preset.n_disparities
    frames = []
    for k, pose_index in enumerate(stations[1:-1]):
        cam = stereo_camera(preset.stereo_shape)
        depth = two_plane_depth(cam, BASELINE_M, preset.stereo_shape, d_background=D // 4,
                                d_foreground=D * 5 // 8, rect=near_rect(preset.stereo_shape))
        t = perf_counter()
        pair = gen_stereo_pair(depth, BASELINE_M, cam, texture_seed=instance_seed(seed, k))
        synth_s["gen_stereo_pair"] += perf_counter() - t
        frames.append(StereoFrame(pair=pair, cam=cam, params=SgmParams(d_min=0, d_max=D - 1),
                                  pose_index=int(pose_index)))

    shape = preset.recolor_shape
    cam = stereo_camera(shape)
    d_bg, d_fg = RECOLOR_DISPARITIES
    depth = two_plane_depth(cam, BASELINE_M, shape, d_background=d_bg, d_foreground=d_fg,
                            rect=near_rect(shape))
    disparity = (cam.focal_px * BASELINE_M / depth).astype(np.float32)
    truth_map = DisparityMap(values=disparity, valid=np.ones(shape, bool),
                             flags=np.zeros(shape, np.uint8))
    rng = _rng(seed, _KEY_RGB)
    rgb = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
    walk_pose = scene.trajectory_world.poses[n_walk // 2]
    pose = Pose(t=walk_pose.t + rng.uniform(0.0, VOXEL_M, 3), r=walk_pose.r)
    z_fg = cam.focal_px * BASELINE_M / d_fg
    offset = RGB_OFFSET_SHARE * shape[1] * z_fg / cam.focal_px
    recolor = RecolorFrame(truth_map=truth_map, cam=cam, rgb=rgb, pose=pose,
                           rgb_pose=Pose(t=pose.t + pose.rotation()[:, 0] * offset, r=pose.r))

    return Inputs(scene=scene, observations=observations,
                  measurements=measurements, initial_poses=initial_poses, anchor=anchor,
                  sightings=sightings, frames=frames, recolor=recolor, synth_s=synth_s)


def build_all(workload: str, seed: int) -> tuple:
    """Every input instance of one benchmark run with workload seed `seed`.

    Returns (inputs, build seconds, mean seconds per synth call kind).
    """
    preset = PRESETS[workload]
    t = perf_counter()
    inputs = [build_inputs(preset, instance_seed(seed, k)) for k in range(preset.instances)]
    build_s = perf_counter() - t
    synth = {name: float(np.mean([i.synth_s[name] for i in inputs])) for name in inputs[0].synth_s}
    return inputs, build_s, synth


def fingerprint(inp: Inputs) -> dict:
    """Generated input sizes plus a hash over every generated array."""
    h = hashlib.sha256()
    arrays = [np.array([o.pixel for o in inp.observations])]
    arrays += [np.concatenate([p.t, p.r]) for _, p in sorted(inp.initial_poses.items())]
    arrays += [s.local_vector for s in inp.sightings]
    scene = inp.scene
    arrays += [np.array([scene.tags[k] for k in sorted(scene.tags)]),
               np.array([scene.tie_points[k] for k in sorted(scene.tie_points)]).reshape(-1, 3),
               scene.world_from_local.matrix()]
    for f in inp.frames:
        arrays += [f.pair.left, f.pair.right, f.pair.disparity]
    arrays += [inp.recolor.truth_map.values, inp.recolor.rgb]
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    n_ties = sum(o.tag_id >= TIE_ID_OFFSET for o in inp.observations)
    return {
        "aerial_frames": len(inp.initial_poses),
        "tags": len(inp.scene.tags),
        "tie_points": len(inp.scene.tie_points),
        "tag_observations": len(inp.observations) - n_ties,
        "tie_observations": n_ties,
        "walk_poses": len(inp.scene.trajectory_local),
        "stereo_frames": len(inp.frames),
        "stereo_pixels": sum(f.pair.left.size for f in inp.frames),
        "recolor_pixels": inp.recolor.truth_map.values.size,
        "sha256": h.hexdigest(),
    }


@dataclass
class Outputs:
    triangulation: object  # TriangulationResult
    problem: BundleProblem  # as solved (initial state)
    report: object  # SolveReport
    walk: object  # registered Trajectory
    accuracy: object  # AccuracyReport
    disparities: list  # DisparityMap per stereo frame
    cloud_sizes: list  # points per accumulated stereo cloud
    grid: VoxelGrid
    fused: object  # PointCloud
    map_size: int
    map_grid: VoxelGrid
    colored: object  # PointCloud of the colorized map centroids


def run_pipeline(inp: Inputs, tr) -> Outputs:
    """One closed-loop pipeline run; every tagbridge call goes through `tr.call`."""
    with tr.group("aerial"):
        tri = tr.call("triangulate", triangulate_tags, inp.observations, inp.initial_poses,
                      AERIAL_CAM)
        points = {lm.tag_id: lm.position for lm in tri.landmarks}
        problem = BundleProblem(intrinsics=AERIAL_CAM, poses=inp.initial_poses, points=points,
                                measurements=[m for m in inp.measurements if m[1] in points],
                                anchors={inp.anchor})
        solved, report = tr.call("bundle.solve", solve, problem)
        refined = [replace(lm, position=solved.points[lm.tag_id])
                   for lm in tri.landmarks if lm.tag_id < TIE_ID_OFFSET]
        corr = tr.call("register.correspond", collect_correspondences, inp.sightings, refined)
        T, _ = tr.call("register.estimate", estimate_rigid_transform, corr.local, corr.world)
        walk = tr.call("register.apply", apply_to_trajectory, T, inp.scene.trajectory_local)
        tags = {lm.tag_id: lm.position for lm in refined}
        accuracy = tr.call("assess", assess, tags, inp.scene.tags)

    grid = VoxelGrid(voxel_size=VOXEL_M)
    disparities, cloud_sizes = [], []
    with tr.group("stereo"):
        for f in inp.frames:
            p = f.params
            bits = census_bits(p.census_window)
            ld = tr.call("sgm.census", census_transform, f.pair.left, p.census_window)
            rd = tr.call("sgm.census", census_transform, f.pair.right, p.census_window)
            left = tr.call("sgm.cost", matching_cost_volume, ld, rd, p.d_min, p.d_max,
                           max_cost=bits)
            right = tr.call("sgm.cost", matching_cost_volume, rd, ld, p.d_min, p.d_max,
                            max_cost=bits, base="right")
            left = tr.call("sgm.aggregate", aggregate_costs, left, p)
            right = tr.call("sgm.aggregate", aggregate_costs, right, p)
            disp = tr.call("sgm.select", select_disparity, left, p, right_aggregated=right)
            del left, right
            cloud = tr.call("sgm.to_cloud", disparity_to_cloud, disp, f.cam, BASELINE_M,
                            walk.poses[f.pose_index], color=f.pair.left_rgb)
            tr.call("fusion.accumulate", accumulate, grid, cloud)
            disparities.append(disp)
            cloud_sizes.append(len(cloud))
        fused = tr.call("fusion.filter", filter_voxels, grid, MIN_POINTS)

    rc = inp.recolor
    with tr.group("recolor"):
        cloud = tr.call("sgm.to_cloud", disparity_to_cloud, rc.truth_map, rc.cam, BASELINE_M,
                        rc.pose)
        map_grid = VoxelGrid(voxel_size=VOXEL_M)
        tr.call("fusion.accumulate", accumulate, map_grid, cloud)
        centroids = tr.call("fusion.filter", filter_voxels, map_grid, MIN_POINTS)
        colored = tr.call("fusion.colorize", colorize_with_occlusion, centroids, map_grid,
                          rc.rgb, rc.cam, rc.rgb_pose)

    return Outputs(triangulation=tri, problem=problem, report=report, walk=walk,
                   accuracy=accuracy, disparities=disparities, cloud_sizes=cloud_sizes, grid=grid,
                   fused=fused, map_size=len(cloud), map_grid=map_grid, colored=colored)


def camera_points(disparity: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Camera-frame points of every pixel of a truth disparity raster, row-major."""
    H, W = disparity.shape
    v, u = np.mgrid[0:H, 0:W]
    z = cam.focal_px * BASELINE_M / disparity.astype(float)
    return np.stack([(u - cam.x0) / cam.focal_px * z, (v - cam.y0) / cam.focal_px * z, z],
                    axis=-1).reshape(-1, 3)


class Scorer:
    """Quality metrics of one run against the generator's truth."""

    def __init__(self, inp: Inputs):
        self.inp = inp
        self.walk_truth = inp.scene.trajectory_world.positions()
        self.frame_trees = [cKDTree(camera_points(f.pair.disparity, f.cam)) for f in inp.frames]

    def visible(self, out: Outputs) -> np.ndarray:
        """Analytic visibility of each colorized centroid from the two-plane plan.

        Visible means projecting (rounded) onto the RGB raster and, for a
        far-plane point, the segment to the RGB camera missing the near-plane
        rectangle.
        """
        rc = self.inp.recolor
        cam = rc.cam
        H, W = rc.truth_map.values.shape
        p = (out.colored.positions - rc.pose.t) @ rc.pose.rotation()  # frame camera
        offset = np.linalg.norm(rc.rgb_pose.t - rc.pose.t)
        x, y, z = p[:, 0] - offset, p[:, 1], p[:, 2]  # relative to the RGB camera
        cols = np.round(cam.x0 + cam.focal_px * x / z)
        rows = np.round(cam.y0 + cam.focal_px * y / z)
        in_view = (cols >= 0) & (cols < W) & (rows >= 0) & (rows < H)

        r0, r1, c0, c1 = near_rect((H, W))
        z_near = cam.focal_px * BASELINE_M / RECOLOR_DISPARITIES[1]
        s = z_near / z  # where the segment from the RGB camera crosses the near plane
        xn, yn = offset + x * s, y * s
        x_lo, x_hi = (np.array([c0, c1]) - 0.5 - cam.x0) * z_near / cam.focal_px
        y_lo, y_hi = (np.array([r0, r1]) - 0.5 - cam.y0) * z_near / cam.focal_px
        blocked = (z > z_near * 1.01) & (xn >= x_lo) & (xn <= x_hi) & (yn >= y_lo) & (yn <= y_hi)
        return in_view & ~blocked

    def quality(self, out: Outputs) -> dict:
        inp = self.inp
        err = out.walk.positions() - self.walk_truth
        good = unocc = 0
        for f, d in zip(inp.frames, out.disparities):
            ok = ~f.pair.occlusion
            unocc += int(ok.sum())
            good += int((ok & d.valid & (np.abs(d.values - f.pair.disparity) <= 1.0)).sum())
        # fused centroids against each frame's truth surface, in the camera
        # frame of the pose the frame was placed at, so registration error
        # (traj_err_m) stays out of the cloud error
        nn = np.full(len(out.fused), np.inf)
        for f, tree in zip(inp.frames, self.frame_trees):
            pose = out.walk.poses[f.pose_index]
            nn = np.minimum(nn, tree.query((out.fused.positions - pose.t) @ pose.rotation())[0])
        colored = (out.colored.color_valid if out.colored.color_valid is not None
                   else np.zeros(len(out.colored), bool))
        return {
            "tag_abs_err_m": float(np.linalg.norm(out.accuracy.absolute_mean)),
            "tag_rel_err_m": float(out.accuracy.relative_mean_distance),
            "traj_err_m": float(np.sqrt(np.mean(np.sum(err ** 2, axis=1)))),
            "disp_good_frac": good / unocc,
            "cloud_err_m": float(np.median(nn)),
            "occlusion_agree_frac": float(np.mean(colored == self.visible(out))),
        }


def check(inp: Inputs, out: Outputs) -> list:
    """Correctness checks on one run's outputs; returns the failures found."""
    problems = []
    tri = out.triangulation
    seen = {o.tag_id for o in inp.observations}
    if tri.failures or {lm.tag_id for lm in tri.landmarks} != seen:
        problems.append(f"not every tag triangulated: failures {sorted(tri.failures)}")
    costs = np.asarray(out.report.cost_trace)
    if np.any(np.diff(costs) > 0):
        problems.append("bundle cost_trace increases")
    if out.grid.n_points != sum(out.cloud_sizes):
        problems.append(f"stereo grid holds {out.grid.n_points} points, "
                        f"clouds gave {sum(out.cloud_sizes)}")
    if out.map_grid.n_points != out.map_size:
        problems.append(f"map grid holds {out.map_grid.n_points} points, "
                        f"cloud gave {out.map_size}")
    for k, d in enumerate(out.disparities):
        if not np.array_equal(d.valid, d.flags == 0):
            problems.append(f"frame {k}: valid != (flags == 0)")
    c = out.colored
    if c.color_valid is not None and c.color_valid.any():
        px, _ = project_points(inp.recolor.cam, inp.recolor.rgb_pose, c.positions[c.color_valid])
        cols = np.round(px[:, 0]).astype(int)
        rows = np.round(px[:, 1]).astype(int)
        if not np.array_equal(c.colors[c.color_valid], inp.recolor.rgb[rows, cols]):
            problems.append("a colored point's RGB differs from the raster at its pixel")
    return problems


def layer_counts(inp: Inputs, out: Outputs) -> dict:
    """Per-layer work counts, read from the stage outputs."""
    tri = out.triangulation
    report = out.report
    problem = out.problem
    n_params = 6 * (len(problem.poses) - len(problem.anchors)) + 3 * len(problem.points)
    lm_trials = len(report.damping_trace) - 1
    # solve takes one Jacobian per iteration, plus an uncounted one when the
    # gradient test ends it: that is the only way to converge with every
    # iteration's step accepted
    accepted = len(report.cost_trace) - 1
    jacobians = report.iterations + int(report.converged and accepted == report.iterations)
    flags = {"sgm.flag_lr": FLAG_LR_FAILED, "sgm.flag_uniqueness": FLAG_UNIQUENESS_FAILED,
             "sgm.flag_oob": FLAG_OUT_OF_RANGE}
    cells = [f.pair.left.size * (f.params.d_max - f.params.d_min + 1) for f in inp.frames]
    colored = out.colored.color_valid
    counts = {
        "triangulate.obs": len(inp.observations),
        "triangulate.failures": len(tri.failures),
        "triangulate.rays_dropped": len(inp.observations) - sum(lm.n_rays for lm in tri.landmarks),
        "bundle.iterations": report.iterations,
        "bundle.lm_trials": lm_trials,
        "bundle.n_params": n_params,
        "bundle.n_residuals": 2 * len(problem.measurements),
        # estimated for the central-difference solver: the initial evaluation,
        # 1 + 2 n_params per Jacobian, one per LM trial (a trial the |phi|
        # guard rejects evaluates nothing but is counted; see README.md)
        "bundle.residual_evals": 1 + jacobians * (1 + 2 * n_params) + lm_trials,
        "bundle.final_rms_px": report.final_rms,
        "register.poses": len(out.walk),
        # both bases: cost and aggregation cover each cell twice per frame
        "sgm.cells": 2 * sum(cells),
        # computed: uint16 raw plus float32 aggregated volume, both bases, largest frame
        "sgm.volume_bytes": 2 * (2 + 4) * max(cells),
        "sgm.valid_frac": (sum(int(d.valid.sum()) for d in out.disparities)
                           / sum(d.valid.size for d in out.disparities)),
        "fusion.points_in": sum(out.cloud_sizes) + out.map_size,
        "fusion.voxels": out.grid.n_voxels + out.map_grid.n_voxels,
        "fusion.voxels_kept": len(out.fused) + len(out.colored),
        "fusion.queries": len(out.colored),
        "fusion.colored": int(colored.sum()) if colored is not None else 0,
    }
    for name, bit in flags.items():
        counts[name] = sum(int(np.count_nonzero(d.flags & bit)) for d in out.disparities)
    return counts
