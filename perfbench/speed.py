"""Host speed probe, to express times in reference seconds.

The benchmark runs on shared hosts whose speed drifts by up to 1.8x for
tens of seconds at a time, with no steal time: the same CPU-bound op takes
0.18 s in one minute and 0.31 s in the next. Medians over a run remove
op-to-op noise but not these drifts. So after its ops the benchmark times a
fixed probe, a mix of small kernels of the kinds of work taildep does
(interpreter loops, dict updates, float parsing, stable sorts, small-array
ufunc chains, random-generator construction), and divides each op's time
by its speed factor, the probe's time right after it / REF_PROBE_S. A time
in reference seconds is the time the op would take on a host where the
probe takes REF_PROBE_S. The probe is the benchmark's own code on fixed
data, so a change to the program moves the op times and never the factor,
as long as the program leaves no work running once an op has returned
(taildep joins its bootstrap thread pool before it returns).

The probe runs in the process that ran the op, right after it: the host's
two vCPUs are often 10-30% apart in speed, so a probe timed in another
process can land on the other one. Within a run, log op time and the log
probe time after it correlate at 0.3-0.96, most where op times spread
most. Over the recorded baseline's ten-seed sets, scaling each op by its
own probe cut the run-to-run spread (IQR / median) of op_s.p50 from
0.09-0.32 raw to 0.03-0.12.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# about the median probe time on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4)
REF_PROBE_S = 0.045
SHARE = 0.1  # probe time as a share of op time


class Probe:
    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(20231227))
        self.small = rng.random(1 << 12)
        self.large = rng.random(1 << 17)
        self.strings = [repr(float(v)) for v in rng.random(5000)]
        self.xs, self.ys = rng.random(100), rng.random(100)
        self.times: list[float] = []

    def _kernels(self) -> None:
        t = 0
        for i in range(30000):
            t += i * i
        d: dict = {}
        for i in range(10000):
            d[i % 97] = d.get(i % 97, 0.0) + 1.5
        [float(s) for s in self.strings]
        for _ in range(10):
            np.argsort(self.small, kind="stable")
        np.argsort(self.large, kind="stable")
        for j in range(150):
            a = j / 150.0
            dist = np.minimum(np.abs(self.xs - a * (self.xs + self.ys)), np.abs(self.ys - a))
            float(np.mean(np.nan_to_num(dist * 0.5, nan=0.0)))
        for j in range(15):
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([5, j])))
            np.argsort(-self.large[gen.integers(0, self.large.size, 500)], kind="stable")

    def sample(self, min_s: float = 0.0) -> None:
        """Time the probe once, then again until min_s seconds have passed."""
        start = perf_counter()
        while True:
            t0 = perf_counter()
            self._kernels()
            t1 = perf_counter()
            self.times.append(t1 - t0)
            if t1 - start >= min_s:
                return

    def after(self, op_s: float) -> float:
        """Sample after an op of op_s seconds, for SHARE of its time and at
        least once; return the median of these samples."""
        start = len(self.times)
        self.sample(SHARE * op_s)
        return statistics.median(self.times[start:])


def factor(times: list[float]) -> float:
    """A run-wide speed factor, for the record: > 1 on a host slower than
    the reference."""
    return statistics.median(times) / REF_PROBE_S
