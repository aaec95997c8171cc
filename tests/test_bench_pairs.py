"""`tools/bench_pairs.py`: pair statistics and the claim rule, on synthetic run records."""

import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "agree", "unit": "1", "better": "higher", "bound": 0.15}]}
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def checkouts(tmp_path, parent, change, seeds=None, agree=(0.9, 0.9), fail_frac=(0.0, 0.0),
              problems=(), seconds=None):
    """A parent and a change checkout with one record per seed; even pairs ran the parent first.

    `fail_frac` is (parent, change) for every run; `problems` are the change's last run's;
    `seconds` maps (side, seed) to a run's `--seconds`, 25 where it has no entry.
    """
    seeds = list(range(101, 101 + len(parent))) if seeds is None else seeds
    dirs = {side: tmp_path / side for side in ("parent", "change")}
    for d in dirs.values():
        (d / ".bench_out").mkdir(parents=True)
    (dirs["change"] / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for i, seed in enumerate(seeds):
        for rank, side in enumerate(("parent", "change") if i % 2 == 0 else ("change", "parent")):
            run_s = (parent if side == "parent" else change)[i]
            metrics = {"run_s": run_s, "agree": agree[side == "change"],
                       "fail_frac": fail_frac[side == "change"]}
            failed = list(problems) if side == "change" and i == len(seeds) - 1 else []
            path = dirs[side] / ".bench_out" / f"recolor-seed{seed}-trace0.json"
            length = (seconds or {}).get((side, seed), 25.0)
            path.write_text(json.dumps({"metrics": metrics, "problems": failed,
                                        "seconds": length}))
            written = 1_000_000 + 10 * i + rank
            os.utime(path, (written, written))
    return dirs


def run_tool(tmp_path, dirs, *extra):
    out = tmp_path / "BENCH_1.json"
    bench_pairs.main(["--parent", str(dirs["parent"]), "--change", str(dirs["change"]),
                      "--out", str(out), *extra])
    return json.loads(out.read_text())


def test_summary_of_a_clear_gain(tmp_path):
    change = [0.9 * p for p in PARENT]
    change[3] = 1.05  # one pair lost
    dirs = checkouts(tmp_path, PARENT, change, agree=(0.90, 0.95), fail_frac=(0.001, 0.001))
    out = tmp_path / "BENCH_1.json"
    out.write_text(json.dumps({"description": "kept", "workloads": {"stale": {}}}))
    bench = run_tool(tmp_path, dirs, "--claim", "recolor", "run_s")

    assert bench["description"] == "kept"
    block = bench["workloads"]
    assert list(block) == ["recolor"]
    block = block["recolor"]
    assert block["seeds"] == list(range(101, 111)) and block["pairs"] == 10
    assert block["first_in_pair"] == ["parent", "change"] * 5
    assert block["all_correct"] and block["fail_frac"] == {"parent": 0.001, "change": 0.001}
    run_s = block["metrics"]["run_s"]
    for side, runs in (("parent", PARENT), ("change", change)):
        q1, median, q3 = np.percentile(runs, [25, 50, 75])
        assert run_s[side] == {"median": median, "q1": q1, "q3": q3}
        assert run_s[f"{side}_runs"] == runs
    assert run_s["parent_iqr"] == run_s["parent"]["q3"] - run_s["parent"]["q1"]
    assert run_s["median_gap"] == run_s["parent"]["median"] - run_s["change"]["median"] > 0
    assert (run_s["pairs_won"], run_s["pairs_lost"], run_s["pairs_tied"]) == (9, 1, 0)
    agree = block["metrics"]["agree"]  # higher is better: a rise is a win and a positive gap
    assert agree["pairs_won"] == 10 and agree["median_gap"] == pytest.approx(0.05)
    claim = bench["claim"]
    assert (claim["workload"], claim["metric"], claim["pairs_won"]) == ("recolor", "run_s", 9)
    assert claim["holds"] is True


@pytest.mark.parametrize("case", ["8-of-10", "gap-within-iqr", "9-pairs", "ties",
                                  "more-failures", "failed-check"])
def test_claim_fails(tmp_path, case):
    parent = PARENT[:9] if case == "9-pairs" else PARENT
    change = [0.9 * p for p in parent]
    fail_frac = (0.0, 0.001) if case == "more-failures" else (0.0, 0.0)
    problems = ["cloud_err_m above its gate"] if case == "failed-check" else []
    if case == "8-of-10":
        change[2], change[5] = 1.1, 1.1
    elif case == "gap-within-iqr":
        change = [p - 0.001 for p in parent]  # wins every pair by less than the spread
    elif case == "ties":
        change[:2] = parent[:2]  # ties count for neither side
    dirs = checkouts(tmp_path, parent, change, fail_frac=fail_frac, problems=problems)
    bench = run_tool(tmp_path, dirs, "--claim", "recolor", "run_s")
    assert bench["claim"]["holds"] is False


def test_seeds_must_pair_up(tmp_path):
    dirs = checkouts(tmp_path, PARENT, PARENT)
    (dirs["change"] / ".bench_out" / "recolor-seed110-trace0.json").unlink()
    with pytest.raises(SystemExit):
        run_tool(tmp_path, dirs)


@pytest.mark.parametrize("mixed", [{("change", 103): 12.0},
                                   {("parent", 101): 12.0, ("parent", 102): 12.0,
                                    ("change", 110): 5.0}],
                         ids=["one-change-run", "both-sides"])
def test_runs_of_different_lengths_refused(tmp_path, capsys, mixed):
    dirs = checkouts(tmp_path, PARENT, PARENT, seconds=mixed)
    with pytest.raises(SystemExit):
        run_tool(tmp_path, dirs)
    error = capsys.readouterr().err
    assert "recolor: runs of different --seconds cannot be paired" in error
    for side, seed in mixed:
        assert f"{side} {seed}" in error
    assert "25 s in parent 10" in error
    assert not (tmp_path / "BENCH_1.json").exists()
