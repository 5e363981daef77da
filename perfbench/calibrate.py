"""Host-speed reference for scaling host times.

The 2-vCPU shared VM this benchmark was built on switches between fast and
slow states (co-tenants on shared cores) every few seconds to minutes: one
pinned ``eo`` cell took 0.34 s or 0.69 s within one minute, and over 14
back-to-back pinned sweeps the quartile spread of the raw sweep time was
28 %. Scaling each cell by a small fixed kernel timed next to it cut that
spread to 3 % in the same sweeps. The kernel never touches octocache, so a
change to octocache cannot move it.

* ``Probe`` runs the kernel from a ``SIGALRM`` handler every
  ``PROBE_INTERVAL_S`` while untraced cells run, so long cells are sampled
  throughout. A cell's time is its wall time minus the probes inside it,
  times ``KERNEL_S`` over the mean probe time within ``WINDOW_S`` of the
  cell.
* ``sample`` runs the kernel ``SAMPLE_RUNS`` times in a row, for calls that
  a probe cannot see (set-up in a child process) or must not disturb (the
  traced run); such a call is scaled by the mean of the samples before and
  after it.

Scaled times read as seconds on a host where the kernel takes ``KERNEL_S``.
Wall times are kept next to them in the run record.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

#: Seconds one kernel run takes on the reference host.
KERNEL_S = 0.004
PROBE_INTERVAL_S = 0.25
WINDOW_S = 0.5
SAMPLE_RUNS = 10

clock = time.perf_counter
_KEYS = np.arange(80_000) % 9973
_VALUES = np.arange(80_000, dtype=float)


def _kernel():
    """Interpreter work (dict reads and writes in a loop) and small numpy
    calls (bincount, partition): the two kinds of work a replay does."""
    table = {}
    acc = 0
    for i in range(8_000):
        key = (i * 7919) % 409
        table[key] = table.get(key, 0) + (i & 3)
        acc += table[key] & 1
    for _ in range(8):
        acc += int(np.bincount(_KEYS, weights=_VALUES).argmax())
        acc += int(np.partition(_VALUES[:8000], -2)[-2])
    return acc


def _timed_kernel():
    start = clock()
    _kernel()
    return start, clock()


def sample():
    """Mean host seconds of one kernel run, right now."""
    gc.collect()
    runs = [_timed_kernel() for _ in range(SAMPLE_RUNS)]
    return statistics.fmean(end - start for start, end in runs)


def scale(before, after):
    """Factor from host seconds to reference-host seconds for a call made
    between two ``sample`` results."""
    return KERNEL_S / ((before + after) / 2)


class Probe:
    """Kernel runs on a timer while the ``with`` block runs."""

    def __init__(self):
        self.runs = []                  # (start, end) of each kernel run

    def _on_alarm(self, signum, frame):
        self.runs.append(_timed_kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def seconds(self, start, end):
        """(wall seconds of [start, end] less the probes inside it, factor to
        reference-host seconds). Needs probes up to ``end + WINDOW_S``."""
        inside = sum(e - s for s, e in self.runs if s >= start and e <= end)
        near = [e - s for s, e in self.runs
                if s >= start - WINDOW_S and e <= end + WINDOW_S]
        return end - start - inside, KERNEL_S / statistics.fmean(near)
