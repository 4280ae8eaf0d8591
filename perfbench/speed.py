"""Host-speed calibration: timings scaled to the reference speed of the host.

The VM the benchmark was built on runs at a speed that follows the load of its
host.  Two kinds of work drift apart there:

- interpreter-bound code (dict and loop code, small numpy calls) runs up to
  twice as slow for minutes at a time;
- a large ``argsort`` drifts by about ±15% over seconds, and not in step with
  the interpreter (correlation 0.4 over 1 s windows).

Each kind has a fixed kernel here that uses nothing of cgrs.  A run samples
the kernels between calls into cgrs, at most every ``EVERY_S`` seconds, and
scales each timed call by the kernel's reference time over the mean of its
samples just before and just after the call.  A workload names, for each kind
of timed piece, the kernel whose work it resembles (``calibration`` in
``workloads.json``): on ``toy-overthink`` everything is interpreter-bound; on
``zipf-152k`` a decode step is mostly ``argsort`` over the vocabulary, while
session construction and a step that runs a probe are mostly
``Vocabulary.encode``, a Python loop, and ``DecodeTrace.to_json`` runs the
pure-Python JSON encoder.

No change to cgrs can move a kernel, so a change moves the scaled timing as it
moves the raw one, while the host's drift cancels.  The reference times are
the kernels' times on that host in a quiet phase (2 vCPUs, Python 3.11, numpy
2.4), so scaled times read as milliseconds there.  A program that left
threads running between calls would slow the kernels and so hide part of its
own cost; cgrs runs none.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Mapping

import numpy as np

#: Least time between two samples during a run; the host's slow phases can
#: come and go within a tenth of a second.
EVERY_S = 0.03

_SMALL = np.linspace(0.5, 1.5, 11)
_MEDIUM = np.random.default_rng(0).permutation(np.linspace(0.01, 1.0, 4096))
_LARGE = np.random.default_rng(1).permutation(np.linspace(0.01, 1.0, 32768))


def _interpreter() -> None:
    """Dict and loop code with small and medium numpy calls, as in a toy decode step."""
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i & 63] = counts.get(i & 63, 0) + i
    for _ in range(150):
        x = _SMALL * 1.5
        x /= x.sum()
    y = np.log(_MEDIUM)
    np.exp(y - y.max(), out=y)
    np.argsort(y)


def _sort() -> None:
    """An argsort of shuffled floats; it slows in step with one over 152k (correlation 0.95)."""
    np.argsort(_LARGE)


#: name -> (kernel, its time on the reference host in a quiet phase in ns)
KERNELS: dict[str, tuple[Callable[[], None], int]] = {
    "interpreter": (_interpreter, 640_000),
    "sort": (_sort, 900_000),
}

#: Kinds of timed piece of one generation: session construction, a next_token()
#: call that returned a token, the call that returned EOS, and the rest (run(),
#: scoring, to_json()).
BUILD, STEP, EOS_STEP, TAIL = 0, 1, 2, 3
#: Calibration keys: what a piece does, which decides the kernel it is scaled by.
#: ``probe_step`` is a next_token() call that made more than one model call.
CALIBRATION_KEYS = ("build", "step", "probe_step", "tail")


def kernel_ns(name: str, repeats: int = 1) -> int:
    """One calibration sample: the median duration of ``repeats`` runs of a kernel, in ns."""
    kernel = KERNELS[name][0]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        kernel()
        samples.append(time.perf_counter_ns() - t0)
    return sorted(samples)[len(samples) // 2]


class Timeline:
    """Raw durations of the timed pieces of a run, each tagged with its calibration window.

    Window ``k`` lies between kernel samples ``k`` and ``k + 1``.  Once the run
    has ended, ``scaled`` multiplies each piece by its kernel's reference time
    over the mean of that kernel's two samples.  ``calibration`` maps each of
    ``CALIBRATION_KEYS`` to a kernel name; without it every factor is 1.
    """

    def __init__(self, calibration: Mapping[str, str] | None):
        self.calibration = dict(calibration or {})
        self.samples = {name: array("q") for name in sorted(set(self.calibration.values()))}
        self.ns = array("q")
        self.kind = array("b")
        self.key = array("b")
        self.window = array("i")
        self._windows = -1
        self._last = -float("inf")
        self.tick()

    def tick(self, force: bool = False) -> None:
        """Sample the kernels, opening a new window, if ``EVERY_S`` has passed since the last time."""
        if self.samples and (force or time.perf_counter() - self._last >= EVERY_S):
            for name, samples in self.samples.items():
                samples.append(kernel_ns(name))
            self._windows += 1
            self._last = time.perf_counter()

    def add(self, kind: int, ns: int, key: str) -> None:
        self.ns.append(ns)
        self.kind.append(kind)
        self.key.append(CALIBRATION_KEYS.index(key))
        self.window.append(self._windows)

    def scaled(self) -> np.ndarray:
        """Every piece's duration in reference-speed ns; closes the last window."""
        ns = np.frombuffer(self.ns, dtype=np.int64).astype(float)
        if not self.samples:
            return ns
        self.tick(force=True)
        window = np.frombuffer(self.window, dtype=np.int32)
        keys = np.frombuffer(self.key, dtype=np.int8)
        for index, key in enumerate(CALIBRATION_KEYS):
            name = self.calibration[key]
            s = np.frombuffer(self.samples[name], dtype=np.int64).astype(float)
            factors = KERNELS[name][1] / ((s[:-1] + s[1:]) / 2)
            mask = keys == index
            ns[mask] *= factors[window[mask]]
        return ns
