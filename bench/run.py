#!/usr/bin/env python3
"""Run one tagbridge benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload walk_stereo --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository: the package is imported from the
checkout's `src/` directory and nowhere else. The load is closed-loop: one
pipeline run at a time, BLAS pinned to one thread. Pipeline runs repeat
until `--seconds` of them have passed (at least MIN_TIMED_RUNS after one
warm-up run), and every run's outputs are checked. Set-up (import plus synth
input generation, in a fresh interpreter) is sampled before the first run and
between the timed runs. A fixed-work probe of the machine's speed runs
between them, and the mean run and set-up times are reported at the
reference machine's normal speed (see calibrate.py); the raw wall times are
kept too.

With `--trace 0` the final JSON line carries the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics, measured
from spans that alternate with untraced runs so the tracing overhead shows.
Every metric, the environment, the input fingerprint and the spans are also
written to `.bench_out/` in the checkout. The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("aerial_block", "walk_stereo", "fusion_recolor")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_TIMED_RUNS = 3
SETUP_SAMPLES = 6  # taken during the runs, after one before them


def use_checkout_sources() -> None:
    """Make `import tagbridge` resolve to this checkout's src/ directory."""
    if not (SRC / "tagbridge" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tagbridge sources under {SRC}")
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_sha() -> str | None:
    """Commit of the checkout; None when it is not a git clone or git is missing."""
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def setup_sample(workload: str, seed: int) -> dict:
    """Time one cold set-up in a fresh interpreter.

    The child imports numpy, scipy and tagbridge, then builds every input
    instance of the workload. Import happens once per process, so each
    sample takes a child process; it is waited for. Returns the child's
    `import_s`, `build_s` and `synth` (mean seconds per synth call kind),
    plus `probe_s`, the times of `probe()` taken just before and just after.
    """
    from calibrate import probe

    before = probe()
    code = ("import json, sys, time; sys.path[:0] = {!r}; t = time.perf_counter(); "
            "import pipeline; i = time.perf_counter() - t; "
            "_, b, s = pipeline.build_all({!r}, {!r}); "
            "print(json.dumps(dict(import_s=i, build_s=b, synth=s)))"
            ).format([str(SRC), str(BENCH)], workload, seed)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return {**json.loads(done.stdout), "probe_s": before + probe()}


def instance_mean(samples: list) -> float:
    """Mean over the instances of each instance's mean seconds.

    `samples` holds (instance, seconds) pairs. Each instance weighs the
    same, however many runs of it a partial last cycle adds.
    """
    per: dict[int, list] = {}
    for k, t in samples:
        per.setdefault(k, []).append(t)
    return statistics.fmean(statistics.fmean(ts) for ts in per.values())


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, run the pipeline for `seconds` and collect every metric.

    Set-up is sampled once before the first run and SETUP_SAMPLES times
    spread over the timed runs (after each run, as many as keep the count in
    step with the share of `seconds` gone), so the samples span the same
    stretch of time as the pipeline runs; the time they take does not count
    against `seconds`. A speed probe runs before the warm-up run, after
    every run and around every set-up sample; `run_s` and `setup_s` are the
    mean wall times (`instance_mean` for runs) scaled by PROBE_REF_S over the
    mean probe time, which samples the machine over the same stretch of time.
    Returns (metrics, record): `metrics` maps every metric name this mode can
    give to its value; `record` holds what goes into the report file
    (input fingerprints, samples, problems found, spans).
    """
    import pipeline as pl
    from calibrate import PROBE_REF_S, probe
    from spans import Tracer, per_run_totals

    inputs, _, _ = pl.build_all(workload, seed)
    probe()  # warm-up, not kept
    setups = [setup_sample(workload, seed)]
    scorers = [pl.Scorer(i) for i in inputs]
    n = len(inputs)

    traced, plain = Tracer(record=True), Tracer(record=False)
    wall = {True: [], False: []}  # (instance, seconds) of each timed run
    probe_s = probe()
    tri_attempted = tri_failed = 0
    reference = [None] * n  # (quality, counts) of each instance's first run
    problems: list[str] = []
    runs = 0
    deadline = time.perf_counter() + seconds
    while runs <= max(MIN_TIMED_RUNS, n) or time.perf_counter() < deadline:
        # run 0 warms up on instance 0; timed runs cycle the instances, and in
        # trace mode every other one is traced, with the parity flipped each
        # cycle so every instance is timed both ways
        k = (runs - 1) % n if runs else 0
        use_trace = trace and runs > 0 and ((runs - 1) + (runs - 1) // n) % 2 == 1
        tr = traced if use_trace else plain
        tr.run_id = runs
        t = time.perf_counter()
        try:
            out = pl.run_pipeline(inputs[k], tr)
        except Exception:  # a failed stage call ends the measurement, reported below
            problems.append(f"run {runs} raised:\n{traceback.format_exc()}")
            break
        elapsed = time.perf_counter() - t
        probe_s += probe()
        if runs > 0:
            wall[use_trace].append((k, elapsed))
        tri = out.triangulation
        tri_attempted += len(tri.landmarks) + len(tri.failures)
        tri_failed += len(tri.failures)
        problems += [f"run {runs}: {p}" for p in pl.check(inputs[k], out)]
        got = (scorers[k].quality(out), pl.layer_counts(inputs[k], out))
        del out  # the next run must not find this one's volumes and grids still held
        if reference[k] is None:
            reference[k] = got
        elif got != reference[k]:
            problems.append(f"run {runs}: quality or counts differ from instance {k}'s first run")
        runs += 1
        if problems:
            break
        if runs > 1:  # the run just checked was timed: keep set-up sampling level with it
            t = time.perf_counter()
            share = min(1.0, 1.0 - (deadline - t) / seconds) if seconds > 0 else 1.0
            while len(setups) < 1 + round(SETUP_SAMPLES * share):
                setups.append(setup_sample(workload, seed))
            deadline += time.perf_counter() - t

    attempted = traced.attempted + plain.attempted + tri_attempted
    failed = traced.failed + plain.failed + tri_failed
    probe_s += [p for s in setups for p in s["probe_s"]]
    scale = PROBE_REF_S / statistics.fmean(probe_s)  # > 1 when the machine is fast
    setup_wall = statistics.fmean(s["import_s"] + s["build_s"] for s in setups)
    metrics = {
        "setup_s": scale * setup_wall,
        "setup_wall_s": setup_wall,
        "probe_s": statistics.fmean(probe_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / attempted,
    }
    if wall[False]:
        metrics["run_wall_s"] = instance_mean(wall[False])
        metrics["run_s"] = scale * metrics["run_wall_s"]
    # quality and counts: mean over the instances, each deterministic
    complete = None not in reference
    if complete:
        for part in (0, 1):
            for name in reference[0][part]:
                metrics[name] = statistics.fmean(r[part][name] for r in reference)
    for name in setups[0]["synth"]:
        metrics[f"synth.{name}_s"] = statistics.median(s["synth"][name] for s in setups)

    layer_self: dict[str, list] = {}
    if wall[True] and complete:
        run_ids = sorted({s.run_id for s in traced.spans})
        per_run = [per_run_totals(traced.spans, i) for i in run_ids]
        for span in {s.name for s in traced.spans}:
            metrics[f"{span}_s"] = statistics.median(d.get(span, 0.0) for d, _ in per_run)
        for _, layers in per_run:
            for layer, t in layers.items():
                layer_self.setdefault(layer, []).append(t)
        metrics["triangulate.self_s"] = statistics.median(layer_self["triangulate"])
        metrics["sgm.aggregate_mcells_per_s"] = (metrics["sgm.cells"] / metrics["sgm.aggregate_s"]
                                                 / 1e6)
        metrics["fusion.query_us"] = metrics["fusion.colorize_s"] / metrics["fusion.queries"] * 1e6
        metrics["traced_run_s"] = scale * instance_mean(wall[True])
        if wall[False]:
            metrics["trace_overhead_s"] = metrics["traced_run_s"] - metrics["run_s"]

    record = {
        "inputs": [pl.fingerprint(i) for i in inputs],
        "runs": runs,
        "run_s_samples": [t for _, t in wall[False]],
        "run_instances": [k for k, _ in wall[False]],
        "traced_run_s_samples": [t for _, t in wall[True]],
        "probe_s_samples": probe_s,
        "setup_s_samples": [s["import_s"] + s["build_s"] for s in setups],
        "import_s_samples": [s["import_s"] for s in setups],
        "build_s_samples": [s["build_s"] for s in setups],
        "layer_self_s": {k: statistics.median(v) for k, v in sorted(layer_self.items())},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "spans": [asdict(s) for s in traced.spans],
    }
    return metrics, record


def print_report(workload, seed, metrics, record, env, units) -> None:
    print(f"# tagbridge benchmark: workload {workload}, seed {seed}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for k, fp in enumerate(record["inputs"]):
        print(f"# input {k} {json.dumps(fp, sort_keys=True)}")
    samples = record["run_s_samples"]
    if samples:
        print(f"# wall time over {len(samples)} untraced runs: mean over instances"
              f" {metrics['run_wall_s']:.4f} min {min(samples):.4f} max {max(samples):.4f} s;"
              f" probe mean {metrics['probe_s'] * 1e3:.2f} ms")
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]:>16.6g} {units.get(name, '')}")
    if record["layer_self_s"]:
        print("# self time per layer (median over traced runs, s)")
        for layer, t in record["layer_self_s"].items():
            print(f"#   {layer:12s} {t:10.4f}")
        if "trace_overhead_s" in metrics:
            print("# tracing overhead (traced - untraced run_s): "
                  f"{metrics['trace_overhead_s']:.4f} s")
    for p in record["problems"]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    try:
        use_checkout_sources()
        e2e_units, layer_units = metric_units()
    except (FileNotFoundError, KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import pipeline  # noqa: F401  (numpy, scipy and tagbridge)

    if not Path(sys.modules["tagbridge"].__file__).resolve().is_relative_to(SRC):
        print("error: tagbridge was not imported from the checkout", file=sys.stderr)
        return 2
    metrics, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = layer_units if args.trace else e2e_units
    record["problems"] += [f"metric {name} not measured" for name in wanted if name not in metrics]
    env = environment()
    units = {**e2e_units, **layer_units, "fail_frac": "1", "traced_run_s": "s",
             "trace_overhead_s": "s", "probe_s": "s"}
    print_report(args.workload, args.seed, metrics, record, env, units)

    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": metrics, **record}, indent=1))

    correct = not record["problems"]
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
