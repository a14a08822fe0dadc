"""Host time rescaled to a reference host speed by periodic in-process probes.

On a shared host the same code can run at very different speeds from one
minute to the next (here: about 1x to 2.3x, in states lasting seconds to
minutes), far beyond any useful regression bound.  :class:`HostClock` measures
that speed while the workload runs: every ``PROBE_INTERVAL_S`` of wall time a
``SIGALRM`` handler runs a fixed probe loop of about a millisecond in the
benchmark's own thread and records how long it took.  A timed interval is
then the sum of its wall-time slices, each scaled by ``reference probe time /
latest probe time``, with the probes' own time left out.  A change to the
program still moves the result one for one (the probes do not change); a
change of host speed moves the probe with it and cancels out.

Two probes follow the two kinds of workload: ``python`` (interpreter-bound:
dict, list, slot and float operations, like the serving simulator) and
``numpy`` (small vectorised array operations, like HQQ's inner loop).  The
reference times are the probes' durations on an uncontended host.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

#: Wall seconds between probes.
PROBE_INTERVAL_S = 0.05
#: Probe duration defining "reference speed", per probe kind (seconds).
PROBE_REF_S = {"python": 1.1e-3, "numpy": 0.56e-3}


class _Cell:
    __slots__ = ("count", "total")


class HostClock:
    """Rescales wall-time intervals by a periodic speed probe (see module doc)."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.ref_s = PROBE_REF_S[kind]
        self._probe = self._probe_python if kind == "python" else self._probe_numpy
        self._cells = [_Cell() for _ in range(64)]
        for cell in self._cells:
            cell.count = 0
            cell.total = 0.0
        # 32 KiB: well under malloc's mmap threshold, so probes landing at
        # random moments do not shift where the workload's arrays are placed
        # (which would move its peak RSS).
        self._array = np.random.default_rng(0).random((32, 128))
        #: End time and duration of every probe, in order.
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    # -- probes -------------------------------------------------------------------
    def _probe_python(self) -> None:
        cells = self._cells
        table: dict[int, int] = {}
        window: list[_Cell] = []
        acc = 0
        for i in range(4000):
            key = i & 255
            table[key] = table.get(key, 0) + 1
            cell = cells[i & 63]
            cell.count += 1
            cell.total += i * 0.5
            window.append(cell)
            if len(window) > 32:
                window.pop()
            acc += len(window)

    def _probe_numpy(self) -> None:
        x = self._array
        for _ in range(16):
            q = np.clip(np.round(x * 7.5), 0, 7)
            float(np.abs(x - q / 7.5).sum())

    def _sample(self, *_: object) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self._probe()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)
        self._busy = False

    # -- lifecycle ----------------------------------------------------------------
    def __enter__(self) -> "HostClock":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    # -- measurement --------------------------------------------------------------
    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of the wall interval ``[start, end]``."""
        ends, durations = self.ends, self.durations
        i = bisect.bisect_right(ends, start)
        current = durations[i - 1] if i else durations[0]
        total = 0.0
        t = start
        while i < len(ends) and ends[i] <= end:
            probe_start = ends[i] - durations[i]
            if probe_start > t:
                total += (probe_start - t) * self.ref_s / current
            current = durations[i]
            t = ends[i]
            i += 1
        if end > t:
            total += (end - t) * self.ref_s / current
        return total

    def slowdown(self) -> float:
        """Median probe time over the reference: the host's mean slowness."""
        ordered = sorted(self.durations)
        return ordered[len(ordered) // 2] / self.ref_s
