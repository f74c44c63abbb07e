"""Machine-speed calibration for a shared host.

On the 2-core VM this benchmark was built on, the speed of the host
swings by +-25% in regimes lasting tens of seconds, so raw wall times of
identical runs differ by more than any useful regression bound.  A fixed
kernel of interpreter work and small numpy calls, like the program's
own, slows down with the host: over 90 s its block medians tracked an
RK4 + sb2c loop with correlation 0.96, and dividing by it cut the spread
(interquartile range over median) of the loop's block medians from 0.30
to 0.05.

The worker runs the kernel before its first and after every scenario,
in its own process; a scenario's time is scaled by REFERENCE_S over the
mean of the two kernel times around it, which gives seconds at the
reference host speed.

Times of whole child processes (cli-mix scenarios, set-ups) need a
process-level kernel instead: ``python -c "import numpy"`` in a fresh
child, run before the first and after every timed process.  Over 110 s
of alternating runs it tracked a ``python -m isospec_lag.cli
heisenberg`` process with correlation 0.76 (the in-process kernel: 0.30)
and cut the spread of 10-run block medians from 0.062 to 0.023.
"""

import time

import numpy as np

#: Kernel times on the reference host at its usual speed.
REFERENCE_S = 0.025
PROCESS_REFERENCE_S = 0.19
PROCESS_KERNEL = ("-c", "import numpy")


def kernel_seconds() -> float:
    a = np.eye(3, dtype=complex)
    t0 = time.perf_counter()
    for _ in range(3000):
        float(np.linalg.norm(a @ a - a))
    return time.perf_counter() - t0


def scaled(seconds: float, cal_before: float, cal_after: float,
           reference: float = REFERENCE_S) -> float:
    """``seconds`` at reference speed, given the kernel times around it."""
    return seconds * reference / ((cal_before + cal_after) / 2)
