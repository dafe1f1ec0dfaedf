"""CPU speed probes used to normalise timings on a shared machine.

On a shared machine the speed of a core changes by up to 2x over stretches
of seconds to minutes, as other tenants load the host.  A fixed kernel run
between calls measures that speed; a duration measured while the probe
took ``p`` seconds is reported as ``duration * reference / p``, the time it
would have taken on a machine that runs the probe in ``reference``
seconds.  The program never runs a probe's code, so no change to the
program can move a probe.

Two kernels: ``python`` (interpreter loop, dict and integer work) for
interpreter-bound calls, and ``blas`` (a 400-wide ``eigvalsh`` and a
300-wide complex matmul on the capped BLAS threads) for the Fock engine.
"""

from __future__ import annotations

import functools
import time

_ROUNDS = 3


def _python_kernel() -> None:
    acc = 0
    table = {}
    for i in range(20000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 7


@functools.cache
def _blas_inputs():
    import numpy as np  # only the workload process runs this probe

    n = np.arange(400.0)
    symmetric = np.cos(np.add.outer(n, n) * 0.37)
    m = n[:300]
    square = np.cos(np.add.outer(m, m) * 0.11) + 1j * np.sin(np.subtract.outer(m, m) * 0.07)
    return symmetric, square


def _blas_kernel() -> None:
    import numpy as np

    symmetric, square = _blas_inputs()
    np.linalg.eigvalsh(symmetric)
    square @ square


# kind -> (kernel, reference seconds).  The references are the fastest
# probe times seen on the 2-core Intel Xeon box the benchmark was defined
# on (Python 3.11.7, OpenBLAS 0.3.31, 2 threads); they only set the scale
# of normalised values.
PROBES = {"python": (_python_kernel, 0.0030), "blas": (_blas_kernel, 0.0108)}


def probe(kind: str) -> float:
    """Seconds for one kernel run, the fastest of a few (drops interrupts)."""
    kernel = PROBES[kind][0]
    best = float("inf")
    for _ in range(_ROUNDS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def factor(kind: str, before: float, after: float) -> float:
    """Multiplier that turns a duration between two probes into reference time."""
    return PROBES[kind][1] / (0.5 * (before + after))
