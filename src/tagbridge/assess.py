"""Accuracy assessment of geo-referenced points against surveyed truth.

Two complementary views: absolute per-axis mean offsets (sensitive to a
global datum shift) and relative pairwise-separation statistics (a constant
offset cancels exactly, exposing the net internal accuracy).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NoCommonIds

logger = logging.getLogger(__name__)


@dataclass
class AccuracyReport:
    absolute_mean: np.ndarray  # signed, per axis
    relative_mean: np.ndarray  # mean |delta separation| per axis
    relative_mean_distance: float  # supplementary: Euclidean pair distances
    n_points: int
    n_pairs: int
    only_estimated: list
    only_truth: list


def _as_point_map(points: dict) -> dict:
    return {k: np.asarray(v, dtype=float).reshape(3) for k, v in points.items()}


def assess(estimated, truth) -> AccuracyReport:
    """Absolute offsets and relative pair statistics over the common ids.

    `estimated` and `truth` map each id to its (3,) point. `absolute_mean`
    is the per-axis mean signed difference (estimated - truth); raises
    NoCommonIds when the sets share no id. For every unordered pair of
    common ids the per-axis separations (|dx|, |dy|, |dz|) are computed in
    both sets: `relative_mean` is the mean of their absolute differences and
    `relative_mean_distance` the same for the Euclidean pair distances.
    With fewer than two common ids there is no pair, and both are zero.
    """
    est_map, tru_map = _as_point_map(estimated), _as_point_map(truth)
    common = sorted(set(est_map) & set(tru_map), key=str)
    only_est = sorted(set(est_map) - set(tru_map), key=str)
    only_tru = sorted(set(tru_map) - set(est_map), key=str)
    if only_est or only_tru:
        logger.info("ids only estimated: %s; only truth: %s", only_est, only_tru)
    # rows of the common ids, in sorted order
    est = np.array([est_map[k] for k in common]).reshape(-1, 3)
    tru = np.array([tru_map[k] for k in common]).reshape(-1, 3)
    if not len(est):
        raise NoCommonIds("no ids shared between estimated and truth sets")
    i, j = np.triu_indices(len(est), 1)
    relative, dist_mean = np.zeros(3), 0.0
    if len(i):
        sep_est, sep_tru = est[i] - est[j], tru[i] - tru[j]
        relative = np.mean(np.abs(np.abs(sep_est) - np.abs(sep_tru)), axis=0)
        dist_mean = float(np.mean(np.abs(np.linalg.norm(sep_est, axis=1)
                                         - np.linalg.norm(sep_tru, axis=1))))
    return AccuracyReport(
        absolute_mean=(est - tru).mean(axis=0),
        relative_mean=relative,
        relative_mean_distance=dist_mean,
        n_points=len(est),
        n_pairs=len(i),
        only_estimated=only_est,
        only_truth=only_tru,
    )
