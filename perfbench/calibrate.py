"""Reference task that measures how fast the machine runs right now.

On a shared virtual machine (2 vCPUs of a Xeon host under KVM) the same
CLI pipeline took from 2.6 s to 5.8 s within five minutes, in fast and
slow spells of a minute or two, and the two vCPUs ran a fixed loop at
speeds that differed by half and swapped within seconds.  ``reference_s``
times a fixed task made of the kinds of work the solver does (parsing
text into floats, building arrays, many small numpy and LAPACK calls)
with numpy alone, never ``shamans``, so no change to the program can
change it.  run.py times it after every measurement, on the CPU the
program runs on, and scales the run's times to a machine that runs the
task in ``NOMINAL_S``.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds the task takes on the machine the benchmark was tuned on, in
# a middling spell; scaled timings read as seconds on that machine.
NOMINAL_S = 0.05

_rng = np.random.default_rng(20201122)
_TOKENS = [repr(x) for x in _rng.random(20_000).tolist()]
_G = _rng.random((24, 24))
_G = _G @ _G.T + 24.0 * np.eye(24)
_B = _rng.random(24)
_SUPPORTS = [np.sort(_rng.choice(24, size=s, replace=False))
             for s in _rng.integers(2, 12, size=300)]


def _task():
    total = 0.0
    for _ in range(3):
        rows = [[float(tok) for tok in _TOKENS[i:i + 200]]
                for i in range(0, len(_TOKENS), 200)]
        total += float(np.asarray(rows).sum())
    for _ in range(2):
        for K in _SUPPORTS:
            L = np.linalg.cholesky(_G[np.ix_(K, K)])
            x = np.linalg.solve(L.T, np.linalg.solve(L, _B[K]))
            j = int(np.argmax(x))
            total += float(np.delete(x, j).sum()) + float(np.insert(K, j, j)[0])
    return total


def reference_s() -> float:
    """Wall time of the reference task at the machine's current speed.

    The first pass after seconds of other work runs up to half again as
    slow (caches and the allocator are cold), so it is run once untimed
    and the faster of two timed passes is returned.
    """
    _task()
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _task()
        best = min(best, time.perf_counter() - start)
    return best
