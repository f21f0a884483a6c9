"""How fast the machine runs Python right now.

The benchmark shares a virtual machine with other tenants, and the same
work takes 1.3-1.9x longer in a busy period than in a quiet one; the
periods last seconds to minutes.  A fixed calibration loop, run
throughout the workload, tracks that speed: over four minutes in which
20 ``translation_between`` calls took 27-51 ms, their time divided by
the loop's stayed within 4% of its mean in 22 of 24 ten-second windows.
The loop is plain object arithmetic in the style of the library's
``Scalar`` (a slotted class whose ``__add__`` and ``__mul__`` allocate
their results; a loop that allocates nothing tracked the library worse)
but shares no code with the library, so no library change can move it.

While ``HostSpeed`` runs, a timer signal interrupts the workload every
``EVERY_S`` seconds, also inside a long library call, and runs the loop
``LOOPS`` times.  The time the handler takes is counted in ``stolen``,
and timers subtract it from the item they time.  ``factor`` is
``REF_S`` over the loop's mean time: a measured time multiplied by it is
the time the item would have taken had one loop taken ``REF_S`` seconds.

The busy and quiet periods last seconds, so one factor for a whole run
left items of a second or so off by up to 1.4x: an item of at least
``EVERY_S`` is scaled by the samples taken from ``PAD_S`` before it
starts to ``PAD_S`` after it ends.  A shorter item holds no sample of
its own and runs in one of the machine's millisecond-scale fast or slow
states (about 1.8x apart), which samples 50 ms away do not share.  It
is scaled by the run's factor: neither a window nor a short loop timed
right next to each item scaled groups of such items more steadily
(bench/README.md, Noise).
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

clock = time.perf_counter

# the loop's time the scaled figures refer to, about its time on the
# 2-vCPU machine the bounds were set on
REF_S = 0.001
# one sample of LOOPS loops (about 2 ms) every EVERY_S seconds: 4% of a
# run, and about 20 samples in every second of it
EVERY_S = 0.05
LOOPS = 2
# the window around an item whose samples scale it: about 20 samples
# besides the item's own
PAD_S = 0.5
MIN_SAMPLES = 5


class _Mod:
    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v
        self.p = p

    def __add__(self, other):
        return _Mod((self.v + other.v) % self.p, self.p)

    def __mul__(self, other):
        return _Mod((self.v * other.v) % self.p, self.p)


_XS = [_Mod(i % 7, 7) for i in range(200)]


def _loop():
    acc = _Mod(0, 7)
    for _ in range(5):
        for a, b in zip(_XS, _XS[1:]):
            acc = acc + a * b
    return acc


class HostSpeed:
    def __init__(self):
        self.loops = 0
        self.loop_s = 0.0
        self.stolen = 0.0
        # per sample: when it was taken, and the loop time summed up to it
        self.at = []
        self.cum_s = [0.0]
        _loop()  # warm up

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        t0 = clock()
        # the collector's pauses grow with the workload's heap, not with
        # the machine's speed; the loop frees its objects by reference
        # counting alone
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(LOOPS):
                _loop()
            t1 = clock()
            self.loop_s += t1 - t0
            self.loops += LOOPS
            self.at.append(t1)
            self.cum_s.append(self.loop_s)
        finally:
            if enabled:
                gc.enable()
            self.stolen += clock() - t0

    def factor(self, t0=None, t1=None):
        """The factor of the window around the item [t0, t1], or the
        run's: for an item shorter than EVERY_S, which holds no sample
        of its own, and for a window of fewer than MIN_SAMPLES samples."""
        lo, hi = 0, len(self.at)
        if t0 is not None and t1 - t0 >= EVERY_S:
            lo = bisect.bisect_left(self.at, t0 - PAD_S)
            hi = bisect.bisect_right(self.at, t1 + PAD_S)
            if hi - lo < MIN_SAMPLES:
                lo, hi = 0, len(self.at)
        return REF_S * LOOPS * (hi - lo) / (self.cum_s[hi] - self.cum_s[lo])
