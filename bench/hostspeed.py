"""Host-speed probe: turns wall time into seconds at a fixed reference speed.

The benchmark's VM shares its cores with other tenants, and its speed swings
by up to 1.8x within seconds and for minutes at a time (``README.md``, "Host
noise and the reference speed").  Identical work then differs by that much
between runs, more than any bound worth having.  So a run samples the host's
speed while it works:
every ``INTERVAL_S`` of wall time a SIGALRM handler, run in the main thread
between bytecodes (no extra thread), times a fixed probe of about 60 us of
Python and small-array numpy work.  The work done in an interval of wall time
is that time multiplied by the mean speed ``PROBE_REF_S / probe time`` of the
samples taken in it, and ``ref_seconds`` reports it in seconds of a host on
which the probe takes ``PROBE_REF_S``.  A program change that does more work
reads higher, whatever the host's speed while it ran.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PROBE_REF_S = 50e-6  # the probe's time in the fast state of a 2-CPU Xeon VM
INTERVAL_S = 0.01
MIN_SAMPLES = 5  # shorter intervals borrow the nearest samples around them

_A = np.arange(32.0)


class SpeedProbe:
    def __init__(self) -> None:
        self.times: list[float] = []  # start of each sample (perf_counter)
        self.probe_s: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(400):
            s += i * i
        a = _A
        for _ in range(20):
            a = np.sqrt(a * a + 1.0)
        self.times.append(t0)
        self.probe_s.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Wall interval [t0, t1] in seconds at the reference speed."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < MIN_SAMPLES:
                hi += 1
        return (t1 - t0) * statistics.fmean(PROBE_REF_S / d for d in self.probe_s[lo:hi])

    def summary(self) -> dict[str, float]:
        q = statistics.quantiles(self.probe_s, n=10)
        return {"samples": len(self.probe_s), "probe_p10_s": q[0], "probe_p50_s": q[4], "probe_p90_s": q[8]}
