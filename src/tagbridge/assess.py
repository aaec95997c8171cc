"""Accuracy assessment of geo-referenced points against surveyed truth.

Two complementary views: absolute per-axis mean offsets (sensitive to a
global datum shift) and relative pairwise-separation statistics (a constant
offset cancels exactly, exposing the net internal accuracy).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NoCommonIds, TooFewPoints

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


def _as_point_map(points) -> dict:
    if isinstance(points, dict):
        return {k: np.asarray(v, dtype=float).reshape(3) for k, v in points.items()}
    return {k: np.asarray(v, dtype=float).reshape(3) for k, v in points}


def _common_points(estimated, truth):
    """(estimated (n, 3), truth (n, 3), only estimated, only truth): the rows
    of the common ids in sorted order, then the ids in one set only."""
    est = _as_point_map(estimated)
    tru = _as_point_map(truth)
    common = sorted(set(est) & set(tru), key=str)
    only_est = sorted(set(est) - set(tru), key=str)
    only_tru = sorted(set(tru) - set(est), key=str)
    if only_est or only_tru:
        logger.info("ids only estimated: %s; only truth: %s", only_est, only_tru)
    return (np.array([est[i] for i in common]).reshape(-1, 3),
            np.array([tru[i] for i in common]).reshape(-1, 3), only_est, only_tru)


def _relative(est, tru):
    i, j = np.triu_indices(len(est), 1)
    sep_est, sep_tru = est[i] - est[j], tru[i] - tru[j]
    axis_means = np.mean(np.abs(np.abs(sep_est) - np.abs(sep_tru)), axis=0)
    dist_diff = np.abs(np.linalg.norm(sep_est, axis=1) - np.linalg.norm(sep_tru, axis=1))
    return axis_means, float(np.mean(dist_diff)), len(i)


def _absolute(est, tru):
    if not len(est):
        raise NoCommonIds("no ids shared between estimated and truth sets")
    return (est - tru).mean(axis=0)


def absolute_offsets(estimated, truth) -> np.ndarray:
    """Per-axis mean signed difference (estimated - truth) over common ids."""
    est, tru, _, _ = _common_points(estimated, truth)
    return _absolute(est, tru)


def relative_distance_stats(estimated, truth):
    """Mean absolute difference of per-axis pairwise separations.

    For every unordered pair of common ids the per-axis separations
    (|dx|, |dy|, |dz|) are computed in both sets; the report is the mean of
    their absolute differences, plus the Euclidean distance column as a
    supplement. Returns (per-axis means (3,), mean distance diff, number of
    pairs).
    """
    est, tru, _, _ = _common_points(estimated, truth)
    if len(est) < 2:
        raise TooFewPoints(f"{len(est)} common id(s); need at least 2 for pairs")
    return _relative(est, tru)


def assess(estimated, truth) -> AccuracyReport:
    """Full accuracy report: absolute offsets plus relative pair statistics."""
    est, tru, only_est, only_tru = _common_points(estimated, truth)
    absolute = _absolute(est, tru)
    if len(est) >= 2:
        relative, dist_mean, n_pairs = _relative(est, tru)
    else:
        relative, dist_mean, n_pairs = np.zeros(3), 0.0, 0
    return AccuracyReport(
        absolute_mean=absolute,
        relative_mean=relative,
        relative_mean_distance=dist_mean,
        n_points=len(est),
        n_pairs=n_pairs,
        only_estimated=only_est,
        only_truth=only_tru,
    )
