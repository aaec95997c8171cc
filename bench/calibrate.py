"""A fixed amount of work that times the machine, not the program.

The reference machine is a few vCPUs of a shared host, and its speed changes
by 1.5 times or more, for seconds to minutes at a time, as other tenants
load it. A run of the benchmark cannot outlast such a phase, so a median
over one run does not remove it. The benchmark therefore runs `probe()` between its timed
pipeline runs and around its set-up samples, and scales its mean times by
`PROBE_REF_S` over the mean probe time of the run: that is the time the same
work takes on the reference machine at its normal speed. A mean is a time
integral, so over a whole run the probe and the program each average the
machine's fast and slow stretches by how long they last. A probe next to one
pipeline run would miss a change of speed inside that run, and a median
jumps from the fast speed to the slow one instead of averaging them.

The probe uses nothing from tagbridge, so a change to the program never
changes it. Its work mixes what the pipeline spends its time on: a pure
Python loop over a dict of tuple keys (like the voxel walks of fusion),
float arithmetic in Python, many numpy calls on arrays of a few hundred
rows (like the bundle's residual evaluations), dense linear algebra (like
its normal equations) and numpy passes over arrays of a few MB (like SGM
and synth).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Mean time of one run of the fixed work on the 2-vCPU reference machine at
# its normal speed. Only a scale: it turns speed-free ratios into seconds.
PROBE_REF_S = 0.0195
REPEATS = 3  # runs per probe() call, each timed and kept

_rng = np.random.Generator(np.random.PCG64(12345))
_GRID = {tuple(k): int(v) for k, v in zip(_rng.integers(0, 40, (4000, 3)),
                                          _rng.integers(0, 5, 4000))}
_WALK = [tuple(k) for k in _rng.integers(0, 40, (24000, 3))]
_ROWS = _rng.standard_normal((900, 2))
_SMALL = _rng.standard_normal((200, 200))
_ARRAY = _rng.standard_normal((240, 320, 32)).astype(np.float32)


def _kernel() -> float:
    hits = 0
    for key in _WALK:  # dict lookups with tuple keys and per-step arithmetic
        x, y, z = key
        if _GRID.get((x, y, z), 0) >= 2 or _GRID.get((z, x, y), 0) >= 3:
            hits += 1
    acc = 0.0
    for i in range(30000):
        acc += (i * 0.5) ** 0.5 / (1.0 + i)
    for _ in range(300):
        r = _ROWS * 1.0001
        r[:, 0] -= np.hypot(r[:, 0], r[:, 1]).mean()
    s = _SMALL[:, 0]
    for _ in range(4):
        s = np.linalg.solve(_SMALL.T @ _SMALL + np.eye(len(s)), s)
    a = np.minimum(_ARRAY[:, 1:], _ARRAY[:, :-1]) + 1.5
    return hits + acc + float(r[0, 0]) + float(s[0]) + float(a.sum(dtype=np.float64))


def probe() -> list:
    """Seconds of each of REPEATS back-to-back runs of the fixed work."""
    times = []
    for _ in range(REPEATS):
        t = perf_counter()
        _kernel()
        times.append(perf_counter() - t)
    return times
