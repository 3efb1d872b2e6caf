"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
+-25% over tens of seconds, which moves the median of a whole run as much
as a real change to the program would. So the benchmark times a fixed
kernel right before and right after every command, and scales each
command's time by

    REFERENCE_S / (mean of the two kernel times)

which gives the time the op would have taken had the host run at the
speed it had when REFERENCE_S was measured. The kernel calls no netforge
code, so a change to the program moves the scaled times exactly as it
moves the wall times; only the host's speed is divided out. The kernel
gives about equal time to the four kinds of work the program does: a
pure-Python loop, scipy's brentq on a Python callable, brentq on a scalar
CubicSpline evaluation (the shape of alpha_ell), and a vectorised numpy
distance scan (as in the field windows and neighbor_graph). Contention on
the host slows these by different amounts; a kernel weighted to the numpy
scan under-corrected configure, whose times then moved 1.25 times as much
as the kernel's.
"""

import time

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

# Median kernel time on the reference machine (2-core Intel Xeon, Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1): 0.0575 s, the median of 206 passes
# made around the ops of three runs, two of solve-ex51 and one of nc-cold,
# times 0.985 since the numpy scan was cut into slices.
REFERENCE_S = 0.0566

_POINTS = np.random.default_rng(0).random((3000, 2))
_GRID = np.linspace(0.0, 3.0, 200)
_SPLINE = CubicSpline(_GRID, np.log1p(_GRID) + 0.1 * np.sin(3.0 * _GRID))


def kernel():
    """Seconds one pass of the fixed kernel takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(140000):
        acc += i * i % 7
    for j in range(650):
        brentq(lambda x: x * x * x - 2.0 - j * 1e-4, 0.0, 3.0)
    for j in range(120):
        target = float(_SPLINE(1.0 + 0.01 * j))
        brentq(lambda x: float(_SPLINE(x)) - target, 0.0, 3.0,
               xtol=1e-13, rtol=8.9e-16)
    for i in range(0, 100, 20):  # in slices, to keep the peak RSS low
        d = ((_POINTS[i:i + 20, None, :] - _POINTS[None, :, :]) ** 2).sum(-1)
        int((d < 0.01).sum())
    return time.perf_counter() - start


def speed_factor(before, after):
    """Factor that scales a time measured between two kernel passes to
    the reference speed."""
    return REFERENCE_S / (0.5 * (before + after))
