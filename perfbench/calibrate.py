"""Calibration against a fixed reference kernel.

The host's speed drifts by tens of percent over tens of seconds, so raw
times from runs a minute apart are not comparable.  Every time the
benchmark reports is therefore rescaled to a reference speed: divided by
the time of a fixed kernel measured around it, and multiplied by
``REF_SECONDS``, the kernel's typical time where the benchmark was defined.

- Set-up: the kernel runs three times right after set-up; the median is
  used.
- CLI calls: a ``SpeedProbe`` times the kernel before the first call, every
  ``every`` seconds of wall time from a timer signal (also in the middle of
  a long call) and after the last call.  The time spent sampling is left
  out of each call's time.  The CLI time between two samples is rescaled
  by the mean of the two samples, and the results are summed.

The kernel never touches braidquot, so a change to the program cannot move
it.  Its mix follows the program's: the blockwise associativity sweep of
``from_table`` (memory-bound) and many small ``np.unique`` and
fancy-indexing calls like ``closure_indices`` (cache-resident).
"""

from __future__ import annotations

import signal
import time

import numpy as np

# The kernel's typical time on the 2-vCPU VM that defined the benchmark.
# Dividing by a measured kernel time and multiplying by this constant turns
# a time into seconds at that machine's typical speed.
REF_SECONDS = 0.07

# Fixed pseudo-random tables.  numpy.random is not imported because it would
# add several MB to the round's peak_rss_mb, and the streaming buffers are
# allocated once, so sampling adds a constant to peak_rss_mb, not a spike.
_N, _ROWS = 256, 16
_I = np.arange(_N, dtype=np.int64)
_TABLE = ((_I[:, None] * 7919 + _I[None, :] * 104729) % _N).astype(np.int32)
_SMALL = ((_I[:96, None] * 131 + _I[None, :96] ** 2) % 96).astype(np.int32)
_LHS = np.empty((_ROWS, _N, _N), dtype=np.int32)
_RHS = np.empty_like(_LHS)
_NE = np.empty(_LHS.shape, dtype=bool)


def _kernel() -> int:
    acc = 0
    # memory-bound: the blockwise (x*y)*z != x*(y*z) sweep of from_table;
    # mode="clip" stops np.take from buffering its output in a temporary
    for x0 in range(0, _N, _ROWS):
        block = _TABLE[x0:x0 + _ROWS]
        np.take(_TABLE, block, axis=0, out=_LHS, mode="clip")
        np.take(block, _TABLE, axis=1, out=_RHS, mode="clip")
        np.not_equal(_LHS, _RHS, out=_NE)
        acc += int(np.count_nonzero(_NE))
    # cache-resident: many small closures as in closure_indices
    for i in range(1100):
        cur = np.unique(_SMALL[i % 96, :24])
        acc += int(np.unique(_SMALL[np.ix_(cur, cur)]).size)
    return acc


def reference_seconds() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def to_reference_speed(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_seconds``, rescaled
    to the speed at which it takes REF_SECONDS."""
    return seconds * REF_SECONDS / kernel_seconds


class SpeedProbe:
    """Samples the reference kernel around and during the timed CLI calls."""

    def __init__(self, every: float):
        self.every = every
        self.refs: list[float] = []   # kernel seconds, per sample
        self.marks: list[float] = []  # CLI seconds done at each sample
        self.cli = 0.0                # CLI seconds of finished calls
        self.spent = 0.0              # seconds spent sampling
        self._op_start: float | None = None
        self._spent_at_start = 0.0

    def _op_time(self) -> float:
        return time.perf_counter() - self._op_start - (self.spent - self._spent_at_start)

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.marks.append(self.cli if self._op_start is None else self.cli + self._op_time())
        self.refs.append(reference_seconds())
        self.spent += time.perf_counter() - t0

    def _on_timer(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.every)

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def start_op(self) -> None:
        self._op_start = time.perf_counter()
        self._spent_at_start = self.spent

    def end_op(self) -> float:
        """CLI seconds of the call that just returned, sampling left out."""
        seconds = self._op_time()
        self.cli += seconds
        self._op_start = None
        return seconds

    def wall_ref_s(self) -> float:
        """CLI seconds at reference speed."""
        return sum(to_reference_speed(self.marks[k] - self.marks[k - 1],
                                      (self.refs[k - 1] + self.refs[k]) / 2)
                   for k in range(1, len(self.refs)))
