#!/usr/bin/env python3
"""Summarise alternating parent/change benchmark runs as the blocks of a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --claim fusion_recolor run_s --out BENCH_30.json

`--parent` and `--change` are two checkouts in which `bench/run.py --trace 0`
ran once per workload and seed, each run leaving its record in
`.bench_out/<workload>-seed<seed>-trace0.json`. The two runs of one seed
form a pair, and the side whose record was written first ran first. Every
workload with records is read; both sides must hold the same seeds, and
every run of a workload must have run for the same `--seconds`.

For each workload the `workloads` block lists the seeds, which side ran
first in each pair, whether every run passed its checks, each side's
largest `fail_frac`, and, for every end-to-end metric that the change
checkout's BENCHMARK.json declares: each side's median and quartiles
(linear interpolation, as numpy.percentile), the change's median relative
to the parent's, the parent's IQR, the median gap (positive when the change
is better), the pairs the change won, lost and tied, and every run.

`--claim WORKLOAD METRIC` adds the `claim` block. The claim holds when there
are at least 10 pairs, every run of the workload passed its checks, the
change's largest `fail_frac` is no larger than the parent's, the change wins
at least nine tenths of the pairs (ties count for neither side) and the
median gap exceeds the parent's IQR. The blocks written replace those of
the `--out` file; its other blocks are kept.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

RECORD = re.compile(r"(?P<workload>\w+)-seed(?P<seed>-?\d+)-trace0\.json")
MIN_PAIRS = 10
RULE = (f"every run passes its checks, the change fails no larger share of operations, and it "
        f"wins at least 9 in 10 of at least {MIN_PAIRS} alternating pairs (ties count for neither "
        "side) with a median gap above the parent's IQR")


def records(checkout: Path) -> dict:
    """{workload: {seed: (metrics, problems, mtime, seconds)}} of a checkout's untraced runs."""
    found: dict = {}
    for path in sorted((checkout / ".bench_out").glob("*-trace0.json")):
        match = RECORD.fullmatch(path.name)
        if match:
            record = json.loads(path.read_text())
            found.setdefault(match["workload"], {})[int(match["seed"])] = (
                record["metrics"], record["problems"], path.stat().st_mtime, record["seconds"])
    return found


def quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def compare(spec: dict, parent: list, change: list) -> dict:
    """One metric's summary over paired runs; `spec` is its BENCHMARK.json entry."""
    def gain(before, after):  # > 0: the change is better
        return before - after if spec["better"] == "lower" else after - before

    p, c = quartiles(parent), quartiles(change)
    gaps = [gain(a, b) for a, b in zip(parent, change)]
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": p, "change": c,
        "change_vs_parent_median": c["median"] / p["median"] - 1.0 if p["median"] else None,
        "parent_iqr": p["q3"] - p["q1"],
        "median_gap": gain(p["median"], c["median"]),
        "pairs_won": sum(g > 0 for g in gaps),
        "pairs_lost": sum(g < 0 for g in gaps),
        "pairs_tied": sum(g == 0 for g in gaps),
        "parent_runs": parent,
        "change_runs": change,
    }


def summarise(spec: list, parent: dict, change: dict) -> dict:
    """The block of one workload from {seed: (metrics, problems, mtime, seconds)} of each side."""
    seeds = sorted(parent)
    return {
        "seeds": seeds,
        "pairs": len(seeds),
        "first_in_pair": ["parent" if parent[s][2] < change[s][2] else "change" for s in seeds],
        "all_correct": not any(side[s][1] for side in (parent, change) for s in seeds),
        "fail_frac": {name: max(side[s][0]["fail_frac"] for s in seeds)
                      for name, side in (("parent", parent), ("change", change))},
        "metrics": {m["name"]: compare(m, [parent[s][0][m["name"]] for s in seeds],
                                       [change[s][0][m["name"]] for s in seeds])
                    for m in spec},
    }


def claim(workloads: dict, workload: str, metric: str) -> dict:
    block = workloads[workload]
    m, pairs, fail_frac = block["metrics"][metric], block["pairs"], block["fail_frac"]
    return {
        "metric": metric, "workload": workload, "rule": RULE, "pairs": pairs,
        "pairs_won": m["pairs_won"], "median_gap": m["median_gap"],
        "parent_iqr": m["parent_iqr"], "change_vs_parent_median": m["change_vs_parent_median"],
        "holds": (pairs >= MIN_PAIRS and block["all_correct"]
                  and fail_frac["change"] <= fail_frac["parent"]
                  and 10 * m["pairs_won"] >= 9 * pairs and m["median_gap"] > m["parent_iqr"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = records(args.parent), records(args.change)
    names = sorted(set(parent) | set(change))
    for w in names:
        seeds = sorted(parent.get(w, {})), sorted(change.get(w, {}))
        if not seeds[0] or seeds[0] != seeds[1]:
            parser.error(f"{w}: parent seeds {seeds[0]} and change seeds {seeds[1]} "
                         "must be equal and not empty")
        lengths: dict = {}  # --seconds: ["<side> <seed>" of each run at that length]
        for side, runs in (("parent", parent[w]), ("change", change[w])):
            for seed, run in sorted(runs.items()):
                lengths.setdefault(run[3], []).append(f"{side} {seed}")
        if len(lengths) > 1:
            parser.error(f"{w}: runs of different --seconds cannot be paired: " + "; ".join(
                f"{seconds:g} s in {', '.join(runs)}" for seconds, runs in sorted(lengths.items())))
    workloads = {w: summarise(spec, parent[w], change[w]) for w in names}
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench["workloads"] = workloads
    if args.claim:
        if args.claim[0] not in workloads:
            parser.error(f"claimed workload {args.claim[0]} has no pairs")
        bench["claim"] = claim(workloads, *args.claim)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    if args.claim:
        print(json.dumps(bench["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
