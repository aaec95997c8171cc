"""`tools/output_digest.py`: reruns of the pipeline give bit-identical outputs."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def digests(*args) -> list:
    done = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          check=True, timeout=300)
    return done.stdout.splitlines()


def test_rerun_in_a_fresh_interpreter_gives_equal_digests():
    first = digests("--workloads", "tiny", "--seeds", "1", "2")
    assert first == digests("--workloads", "tiny", "--seeds", "1", "2")
    parts = ["stereo", "aerial", "fused", "recolor", "quality"]
    assert [line.split()[:7] for line in first] == [
        ["tiny", "seed", seed, "instances", "2", part, "sha256"]
        for seed in ("1", "2") for part in parts]
    one, two = ([line.split()[-1] for line in first[i:i + 5]] for i in (0, 5))
    assert all(len(d) == 64 for d in one)
    assert all(a != b for a, b in zip(one, two))  # each part's digest follows the inputs


def test_unknown_workload_rejected():
    done = subprocess.run([sys.executable, str(TOOL), "--workloads", "huge", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 2
    assert "unknown workloads ['huge']" in done.stderr
