"""A fixed calibration kernel that tracks the host's speed.

On a shared host the same trial can take 18 ms in one second and 34 ms a few
seconds later, because neighbours on the host come and go; the slow and fast
phases last seconds to minutes, so they do not average out within a run. The
benchmark times this kernel between trials and divides each trial time by the
kernel's speed around it, relative to ``NOMINAL_NS``. The kernel does not use
fdrelay, so a change to fdrelay cannot move it; it mixes the kinds of work a
trial does: scalar Python arithmetic, small complex numpy operations and
sha256 hashing.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

# the kernel's time on an undisturbed core of the reference box (Xeon, 2 vCPUs)
NOMINAL_NS = 2_000_000

_rng = np.random.default_rng(20200423)
_POINTS = _rng.standard_normal(64) + 1j * _rng.standard_normal(64)
_MATRIX = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))


def _kernel() -> float:
    acc = 0.0
    for i in range(3000):
        acc += math.sqrt(i + 1.0) * math.cos(i * 1e-3)
    z = 0.1 + 0.2j
    for _ in range(150):
        d = np.abs(_POINTS - z)
        z = complex(np.sum(_POINTS / d) / np.sum(1.0 / d))
    acc += abs(complex(np.vdot(_POINTS, _MATRIX @ _POINTS))) + abs(z)
    for i in range(300):
        acc += hashlib.sha256(f"{i}|S2V|{i}|{-i}|{i}".encode("ascii")).digest()[0]
    return acc


def kernel_ns() -> int:
    """Wall time of one run of the kernel."""
    start = time.perf_counter_ns()
    _kernel()
    return time.perf_counter_ns() - start


def slowdowns(kernel_times: list[int]) -> list[float]:
    """Slowdown of the interval between each pair of neighbouring kernel runs."""
    return [(a + b) / (2.0 * NOMINAL_NS) for a, b in zip(kernel_times, kernel_times[1:])]
