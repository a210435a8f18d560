"""Machine-speed calibration for the pipeline benchmark.

On a shared host the same call runs at different speeds from one second to
the next, most likely as other tenants share its cores: calls of the same
work switch between a fast state and one about 1.6x slower, for
under a second up to half a minute at a time. Averaging more calls does not
remove this, because whole runs can fall in the slow state.

So every timed call is bracketed by a fixed kernel of the benchmark's own
(n-gram hashing into a dict, a float32 matmul and a row argsort: the mix of
interpreter and numpy work the pipeline does), and the call's time is
scaled by how much slower than ``REFERENCE_S`` the kernel ran around it.
Interpreter work slows more in the slow state than numpy work; the
kernel's split, about one third interpreter time, puts its slowdown near
that of the pipeline's stages.

The kernel touches no package code, so a change to belforge moves the
call's time and not the reading. Raw times are kept beside the scaled ones.
"""

import statistics
import time
from collections import defaultdict

import numpy as np

# the kernel's time at the reference speed: about its fast-state time on
# the 2-vCPU shared x86-64 VM the benchmark was built on
REFERENCE_S = 0.005

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((512, 1024)).astype(np.float32)
_B = _rng.standard_normal((1024, 192)).astype(np.float32)
_TEXTS = [f"^term {i} of the calibration set$" for i in range(170)]


def kernel_seconds():
    """One run of the calibration kernel, timed."""
    start = time.perf_counter()
    counts = {}
    for s in _TEXTS:
        for i in range(len(s) - 2):
            k = hash(s[i:i + 3]) % 1024
            counts[k] = counts.get(k, 0) + 1
    np.argsort(_A @ _B, axis=1)
    return time.perf_counter() - start


def scaled(seconds, before, after):
    """A call's time at the reference speed, from the kernel readings taken
    just before and just after it."""
    return seconds * REFERENCE_S / ((before + after) / 2)


class Timings:
    """Timed calls in the order they ran, each with the kernel reading taken
    just before it. The reading after a call is the next call's reading, or
    the one ``finish`` takes after the last call."""

    def __init__(self):
        self.calls = []      # (key, seconds, reading before)
        self.last_reading = None

    def add(self, key, seconds, reading):
        self.calls.append((key, seconds, reading))

    def finish(self):
        self.last_reading = kernel_seconds()

    def raw(self):
        by_key = defaultdict(list)
        for key, seconds, _ in self.calls:
            by_key[key].append(seconds)
        return by_key

    def readings(self):
        return [r for _, _, r in self.calls] + [self.last_reading]

    def scaled(self):
        """Times at the reference speed, by key. Call ``finish`` first."""
        after = self.readings()[1:]
        by_key = defaultdict(list)
        for (key, seconds, before), later in zip(self.calls, after):
            by_key[key].append(scaled(seconds, before, later))
        return by_key

    def slowdown(self):
        """Median reading over ``REFERENCE_S``: how much slower than the
        reference speed the machine ran during the calls."""
        return statistics.median(self.readings()) / REFERENCE_S
