"""Host-speed correction for timings taken on a shared machine.

On a shared host the same code can run at two or more speeds that switch
every few seconds (another tenant busy on the same physical core roughly
halves the speed here), so raw seconds from one run say more about the
neighbours than about the program.  `SpeedSampler` times a fixed pure-Python
reference loop from a SIGALRM handler every `INTERVAL_S` while it is active:
in the main thread, between bytecodes, with no extra thread or process.  A
measured interval is then converted to reference-speed seconds: its length,
less the time the handler itself took, scaled by the mean of
`REFERENCE_S / sample` over the samples taken in it.  With a constant
host speed the correction is a constant factor, which cancels when two
commits are compared on the same machine.
"""

import bisect
import signal
import time

INTERVAL_S = 0.01
# Nominal duration of one `_reference_work` call.  Any constant works; this
# one keeps corrected times close to raw seconds on an unloaded host.
REFERENCE_S = 0.00009


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _reference_work() -> int:
    """Interpreter work of the kind cecsim does: small objects, attribute
    reads, tuple keys and dict updates, string formatting."""
    table = {}
    total = 0
    for i in range(160):
        cell = _Cell((i & 31, i % 7), i)
        table[cell.key] = table.get(cell.key, 0) + cell.value
        total += len("%d" % i)
    return total


class SpeedSampler:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        begin = time.perf_counter()
        _reference_work()
        self.starts.append(begin)
        self.durations.append(time.perf_counter() - begin)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def corrected(self, begin: float, end: float) -> float:
        """Reference-speed seconds of the interval [begin, end).  An
        interval shorter than the sampling period borrows the speed of the
        samples just before and after it."""
        lo, hi = bisect.bisect_left(self.starts, begin), bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi]
        handler_s = sum(inside)
        if not inside:
            inside = self.durations[max(lo - 1, 0):hi + 1]
        if not inside:
            return end - begin
        factor = sum(REFERENCE_S / d for d in inside) / len(inside)
        return (end - begin - handler_s) * factor
