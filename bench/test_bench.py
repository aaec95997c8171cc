"""Tests of the benchmark itself, on the tiny preset.

    python3 -m pytest -q bench
"""

import time

import numpy as np
import pytest

import run

run.use_checkout_sources()

import pipeline as pl  # noqa: E402
from spans import Tracer, per_run_totals, self_times  # noqa: E402

TINY = pl.PRESETS["tiny"]


@pytest.fixture(scope="module")
def tiny():
    inp = pl.build_inputs(TINY, pl.instance_seed(3, 0))
    return inp, pl.Scorer(inp)


@pytest.fixture(scope="module")
def traced_run(tiny):
    inp, _ = tiny
    tr = Tracer(record=True)
    t = time.perf_counter()
    out = pl.run_pipeline(inp, tr)
    return out, tr, time.perf_counter() - t


def test_traced_and_untraced_runs_give_identical_quality(tiny, traced_run):
    inp, scorer = tiny
    out, _, _ = traced_run
    plain = pl.run_pipeline(inp, Tracer(record=False))
    assert scorer.quality(plain) == scorer.quality(out)
    assert pl.layer_counts(inp, plain) == pl.layer_counts(inp, out)


def test_layer_counts_match_stage_outputs(tiny, traced_run):
    inp, _ = tiny
    out, tr, _ = traced_run
    counts = pl.layer_counts(inp, out)
    assert counts["triangulate.obs"] == len(inp.observations)
    assert counts["triangulate.failures"] == len(out.triangulation.failures) == 0
    assert counts["bundle.iterations"] == out.report.iterations
    assert counts["bundle.n_residuals"] == 2 * len(out.problem.measurements)
    assert counts["register.poses"] == len(inp.scene.trajectory_local)
    flags = np.concatenate([d.flags.ravel() for d in out.disparities])
    assert counts["sgm.flag_lr"] == np.count_nonzero(flags & 1)
    assert counts["sgm.flag_uniqueness"] == np.count_nonzero(flags & 2)
    assert counts["sgm.flag_oob"] == np.count_nonzero(flags & 4)
    assert counts["sgm.valid_frac"] == np.count_nonzero(flags == 0) / flags.size
    assert counts["fusion.points_in"] == out.grid.n_points + out.map_grid.n_points
    assert counts["fusion.voxels"] == out.grid.n_voxels + out.map_grid.n_voxels
    assert counts["fusion.queries"] == len(out.colored)
    assert counts["fusion.colored"] == int(out.colored.color_valid.sum())
    # one span per stage call; the groups are not stage calls
    names = [s.name for s in tr.spans]
    assert names.count("sgm.census") == 2 * len(inp.frames)
    assert names.count("fusion.accumulate") == len(inp.frames) + 1
    assert tr.attempted == len(names) - names.count("aerial") - names.count("stereo") \
        - names.count("recolor")
    assert tr.failed == 0


def test_self_times_add_up_to_no_more_than_wall_time(traced_run):
    out, tr, wall = traced_run
    own = self_times(tr.spans)
    assert min(own) >= -1e-9
    assert sum(own) <= wall
    durations, layers = per_run_totals(tr.spans, tr.run_id)
    assert sum(layers.values()) == pytest.approx(sum(own))
    assert durations["bundle.solve"] <= wall


def _flip_one_valid(out):
    valid = out.disparities[0].valid
    valid[0, 0] = not valid[0, 0]


def _recolor_one_point(out):
    c = out.colored
    c.colors[np.flatnonzero(c.color_valid)[0]] ^= 1


# one way to break each check, and the start of the problem it must report
BREAKERS = [
    (lambda out: out.triangulation.landmarks.pop(), "not every tag triangulated"),
    (lambda out: out.report.cost_trace.append(out.report.cost_trace[-1] * 2.0),
     "bundle cost_trace increases"),
    (lambda out: out.cloud_sizes.append(1), "stereo grid holds"),
    (lambda out: setattr(out, "map_size", out.map_size + 1), "map grid holds"),
    (_flip_one_valid, "frame 0: valid != (flags == 0)"),
    (_recolor_one_point, "a colored point's RGB differs"),
]


def test_checks_pass_on_a_good_run(tiny):
    inp, _ = tiny
    assert pl.check(inp, pl.run_pipeline(inp, Tracer(record=False))) == []


@pytest.mark.parametrize("breaker, problem", BREAKERS, ids=[p for _, p in BREAKERS])
def test_checks_catch_broken_outputs(tiny, breaker, problem):
    inp, _ = tiny
    out = pl.run_pipeline(inp, Tracer(record=False))
    breaker(out)
    problems = pl.check(inp, out)
    assert len(problems) == 1 and problems[0].startswith(problem)


def test_inputs_are_a_function_of_the_seed():
    a = pl.fingerprint(pl.build_inputs(TINY, 5))
    assert a == pl.fingerprint(pl.build_inputs(TINY, 5))
    assert a["sha256"] != pl.fingerprint(pl.build_inputs(TINY, 6))["sha256"]


@pytest.mark.parametrize("trace", [False, True])
def test_measure_reports_every_declared_metric(trace):
    e2e, layers = run.metric_units()
    metrics, record = run.measure("tiny", seed=1, seconds=0.0, trace=trace)
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] > 0
    wanted = layers if trace else e2e
    assert set(wanted) <= set(metrics)
    assert len(record["setup_s_samples"]) == 1 + run.SETUP_SAMPLES
    if trace:
        assert record["spans"] and record["traced_run_s_samples"]
