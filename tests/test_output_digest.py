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
    assert [line.split()[:5] for line in first] == [
        ["tiny", "seed", "1", "instances", "2"], ["tiny", "seed", "2", "instances", "2"]]
    (one, two) = (line.split()[-1] for line in first)
    assert len(one) == 64 and one != two  # the digest follows the inputs


def test_unknown_workload_rejected():
    done = subprocess.run([sys.executable, str(TOOL), "--workloads", "huge", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 2
    assert "unknown workloads ['huge']" in done.stderr
