"""A fixed reference computation that tracks the speed of a shared host.

On the shared host the bounds were set on, the speed one process gets
switches between two states every few hundred milliseconds, the slow one
1.5-1.7x slower for interpreter, small dense linear algebra and
memory-streaming work alike.  The probe is a ~10 ms mix of those kinds
of work, short next to a speed state, so the probe taken next to a timed
interval reads the host speed during that interval.  A time t is reported
as t * REFERENCE_S / probe: seconds at the reference speed.  The probe
runs no skmslab code, so a change to the program cannot move it.
"""

import time

import numpy as np
# a binding of its own: the traced run wraps scipy.linalg.expm, not this
from scipy.linalg import expm

# probe time in the faster state of the 2-vCPU x86-64 host the bounds
# were set on, with one BLAS thread
REFERENCE_S = 0.0065


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.small = a / np.linalg.norm(a, 2)
        self.herm = a + a.conj().T
        self.batch = (rng.standard_normal((2000, 5, 5))
                      + 1j * rng.standard_normal((2000, 5, 5))) / 5.0
        self.wide = rng.standard_normal((5,) * 4 + (2, 2)) + 0j
        self.block = rng.standard_normal((5, 5, 2, 2)) + 0j
        self.samples = []

    def run(self):
        """Time one probe, in seconds."""
        start = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += (i * i) % 7
        for _ in range(30):
            expm(self.small)
            np.linalg.eigh(self.herm)
        for _ in range(2):
            self.batch @ self.batch
        for _ in range(2):
            np.einsum("...iab,ijbc->...ijac", self.wide, self.block)
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    @staticmethod
    def scale(before, after):
        """Factor for an interval between two probes."""
        return 2.0 * REFERENCE_S / (before + after)

    def mean_scale(self):
        """Factor from the run's mean probe, for per-layer times."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
