#!/usr/bin/env python3
"""Print one sha256 per output part, workload and seed of the benchmark pipeline.

    python3 tools/output_digest.py --workloads aerial_block fusion_recolor --seeds 3 21 22

Every input instance that `bench/pipeline.py`'s `build_all` makes for a
workload and seed runs once through `run_pipeline`. Each part's digest
covers, per instance in order:
- `stereo`: each stereo frame's disparity map: values, valid and flags;
- `aerial`: the bundle's refined points and poses, its `cost_trace`, its
  iterations, LM trials and stop rule, and the registered walk;
- `fused`: the fused cloud's positions, colours and validity;
- `recolor`: the recoloured cloud's positions, colours and validity;
- `quality`: the quality metrics of `Scorer.quality`.
Two checkouts that print equal digests for a part, workload and seed give
bit-identical outputs of that part on those inputs, so a change that moves
one part can show the others unchanged. Each line reads
`<workload> seed <seed> instances <n> <part> sha256 <hex>`. The package and
the benchmark are imported from this checkout's `src/` and `bench/`, and
BLAS is pinned to one thread, both as `bench/run.py` does it; nothing is
written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


class Recorder:
    """The tracer that `run_pipeline` takes; keeps every stage call's result by name."""

    def __init__(self):
        self.results: dict[str, list] = {}

    def call(self, name: str, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        self.results.setdefault(name, []).append(out)
        return out

    def group(self, name: str):
        return contextlib.nullcontext()


def _update(h, *arrays) -> None:
    import numpy as np

    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def _update_cloud(h, cloud) -> None:
    _update(h, cloud.positions, cloud.colors, cloud.color_valid)


PARTS = ("stereo", "aerial", "fused", "recolor", "quality")


def digest(workload: str, seed: int) -> tuple[int, dict]:
    """(instances, {part: sha256 hex}) over the outputs of one workload and seed."""
    import numpy as np
    import pipeline as pl

    inputs, _, _ = pl.build_all(workload, seed)
    h = {part: hashlib.sha256() for part in PARTS}
    for inp in inputs:
        tr = Recorder()
        out = pl.run_pipeline(inp, tr)
        for d in out.disparities:
            _update(h["stereo"], d.values, d.valid, d.flags)
        (solved, report), = tr.results["bundle.solve"]
        _update(h["aerial"], np.array([solved.points[k] for k in sorted(solved.points)]),
                np.array([np.concatenate([solved.poses[k].t, solved.poses[k].r])
                          for k in sorted(solved.poses)]),
                np.array(report.cost_trace), out.walk.t, out.walk.r)
        h["aerial"].update(json.dumps({
            "iterations": report.iterations,
            "lm_trials": len(report.damping_trace) - 1,
            "stop": report.stop,
        }, sort_keys=True).encode())
        _update_cloud(h["fused"], out.fused)
        _update_cloud(h["recolor"], out.colored)
        h["quality"].update(json.dumps(pl.Scorer(inp).quality(out), sort_keys=True).encode())
    return len(inputs), {part: sha.hexdigest() for part, sha in h.items()}


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import run  # the benchmark's entry point; it imports no numpy

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)

    for var in run.BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    run.use_checkout_sources()
    import pipeline as pl

    unknown = sorted(set(args.workloads) - set(pl.PRESETS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; presets are {sorted(pl.PRESETS)}")
    for workload in args.workloads:
        for seed in args.seeds:
            n, hexdigests = digest(workload, seed)
            for part, hexdigest in hexdigests.items():
                print(f"{workload} seed {seed} instances {n} {part} sha256 {hexdigest}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
