"""Machine-speed calibration for the benchmark's timings.

On a machine shared with other tenants the speed of a core drifts by 40%
and more within tens of seconds, so a wall time alone cannot tell a change
in the program from a change in the machine.  A fixed kernel made of the
program's own kinds of work (Python integer arithmetic, 40-digit mpmath
multiply-adds, a batch of small numpy determinants) is timed next to every
measurement, and times are reported at the reference speed at which the
kernel takes ``REF_MS``:

    reported = measured * (REF_MS / kernel) ** elasticity

The program slows less than the kernel when the machine slows.  The
elasticity of each workload is the slope of log request time on log kernel
time over interleaved trials of the reachvol release the benchmark was
written against.  A change that moves work between Python, mpmath and
numpy can change that slope, so a speed claim must also hold, in the same
direction, in the raw wall times that every run prints (``raw_wall`` in the
detail line).  The kernel runs before every request, and each request is
scaled by the median kernel time of the requests around it.
"""

import statistics
import time
from itertools import combinations

import numpy as np
from mpmath import mp, mpf

REF_MS = 4.0  # kernel time that defines the reference speed (a quiet 2-vCPU Xeon VM)
ELASTICITY = {"expansion": 0.65, "sweep": 0.53, "recursion": 0.70, "oracle": 0.69}
# set-up (a fresh interpreter importing reachvol) was not fitted on its own;
# it takes the middle of the workloads' slopes
SETUP_ELASTICITY = 0.65
WINDOW = 3  # requests on each side whose kernel times set a request's speed

_G = np.random.default_rng(0).standard_normal((16, 4))
_MINORS = np.array(list(combinations(range(16), 4)))


def kernel_ms():
    """Time one run of the calibration kernel, in ms."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    with mp.workdps(40):  # fixed, whatever precision the program leaves behind
        a, b, acc = mpf(2) / 3, mpf(5) / 7, mpf(0)
        for _ in range(1_500):
            acc += a * b
    float(np.abs(np.linalg.det(_G[_MINORS])).sum())
    return (time.perf_counter() - t0) * 1e3


def normalize(times, kernels, elasticity):
    """Scale each time to the reference speed by the median kernel time of
    its neighbours, itself included."""
    return [t * (REF_MS / statistics.median(kernels[max(0, i - WINDOW):i + WINDOW + 1]))
            ** elasticity for i, t in enumerate(times)]
