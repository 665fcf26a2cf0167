"""Scale measured times to a reference CPU speed.

The machines this benchmark runs on are shared: the same `ordalg check`
can take 6 s or 9.5 s a minute apart, and the speed changes within
seconds.  So while a timed child process runs, the parent stops it
every SLICE_S seconds (SIGSTOP), times a fixed pure-Python loop, and
lets it go on (SIGCONT).  The loop is also timed once before the spawn
and once after the exit.  Each stretch the child ran is scaled by
REFERENCE_S over the mean of the two loop times around it, so a time
reads as seconds on a machine where the loop takes REFERENCE_S.  The
loop uses none of `ordalg`, so a change to the program moves the
scaled time as it moves the raw one.
"""
from __future__ import annotations

import os
import select
import signal
import time

REFERENCE_S = 0.008
SLICE_S = 0.1

_KEYS = [str(i) for i in range(24)]
_TABLE = {(a, b): str(max(int(a), int(b))) for a in _KEYS for b in _KEYS}
_POINTS = ("a", "b", "c", "d")


class _Function:
    """A small stand-in for a function on four points."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values

    def __call__(self, x):
        return self.values[_POINTS.index(x)]


def loop() -> float:
    """Seconds taken by a fixed loop that does what `ordalg` spends its
    time on: lookups in small tables keyed by string tuples, small calls,
    and building small tuples, sets and dicts.  Its working set is small;
    a loop over a table of a few MB tracked the program worse."""
    start = time.perf_counter()
    table, hits = _TABLE, 0
    for a in _KEYS[:12]:
        row = {}
        for b in _KEYS:
            for c in _KEYS:
                key = (table[(a, b)], c)
                if table[key] == table[(a, table[(b, c)])]:
                    row[(b, c)] = key
        hits += len(row)
    for i in range(750):
        f = _Function(tuple(str((i >> k) & 3) for k in range(4)))
        hits += max({f(x) for x in ("a", "c")}) > "1"
        hits += all(f(x) <= "3" for x in _POINTS)
    return time.perf_counter() - start


class Timeline:
    """The stretches (start, end, loop seconds) during which a child ran."""

    def __init__(self, stretches: list):
        self.stretches = stretches

    def seconds(self, start: float, end: float) -> float:
        """Seconds the child ran within [start, end]."""
        return sum(self._overlap(start, end, a, b) for a, b, _ in self.stretches)

    def scaled(self, start: float, end: float) -> float:
        """The same, in seconds at the reference speed."""
        return sum(self._overlap(start, end, a, b) * REFERENCE_S / c for a, b, c in self.stretches)

    @staticmethod
    def _overlap(start, end, a, b) -> float:
        return max(0.0, min(end, b) - max(start, a))


def watch(pid: int, spawned_at: float, before: float, slice_s: float = SLICE_S) -> tuple[int, Timeline]:
    """Wait for `pid` to end, stopping it every `slice_s` to time the
    loop.  `before` is the loop time taken just before the spawn.

    Returns the wait status of the child and its timeline.
    """
    stretches, last, ran_from = [], before, spawned_at
    fd = os.pidfd_open(pid)
    try:
        while not select.select([fd], [], [], slice_s)[0]:
            stopped_at = time.monotonic()
            os.kill(pid, signal.SIGSTOP)
            _, status = os.waitpid(pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                ended_at = time.monotonic()
                break
            try:
                sample = loop()
            finally:
                os.kill(pid, signal.SIGCONT)
            stretches.append((ran_from, stopped_at, (last + sample) / 2))
            last, ran_from = sample, time.monotonic()
        else:
            _, status = os.waitpid(pid, 0)
            ended_at = time.monotonic()
    finally:
        os.close(fd)
    after = loop()
    stretches.append((ran_from, ended_at, (last + after) / 2))
    return status, Timeline(stretches)
