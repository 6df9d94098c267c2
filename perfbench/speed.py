"""Machine-speed reference for rescaling measured times.

The shared machines this benchmark runs on change speed by up to 1.6x for
seconds at a time, for reasons outside the process (other tenants on the
same physical core).  A fixed reference kernel, timed at the ends of a
measured stretch and every INTERVAL_S seconds within it, gives the speed
during the stretch; `rescale` maps the stretch's seconds to seconds at the
reference speed REFERENCE_S.  Imports, which read files and allocate, do
not follow the kernel closely in those phases, so import times are rescaled
by the time of a fixed set of reference imports instead
(`import_reference_seconds`).
"""

from __future__ import annotations

import importlib
import signal
import statistics
import sys
import time

import numpy as np

#: Seconds taken by `reference_seconds` at the reference speed; a fixed
#: constant near its time on the 2.1 GHz Xeon where the benchmark was made,
#: which only sets the scale of rescaled times.
REFERENCE_S = 0.012
#: Interval between reference samples inside a measured stretch.
INTERVAL_S = 0.25
#: Standard-library modules that neither bayesmc nor numpy import; timing
#: their import in a fresh interpreter gives its import speed.
REFERENCE_IMPORTS = ("asyncio", "email.parser", "http.client", "xml.dom.minidom",
                     "unittest", "ssl", "smtplib", "pydoc", "doctest", "pdb",
                     "xmlrpc.client", "tarfile", "difflib")
#: Seconds the reference imports take at the reference speed (sets the scale).
REFERENCE_IMPORT_S = 0.065

_X = np.linspace(0.1, 10.0, 64)


def reference_seconds() -> float:
    """Time a fixed mix of interpreter and small-array numpy work, the
    same mix the bayesmc CLI spends its time in."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += float(np.log(_X + i).sum())
        acc += sum(j * 0.5 for j in range(32))
    return time.perf_counter() - start


def import_reference_seconds() -> float:
    """Time the first import of REFERENCE_IMPORTS in this interpreter."""
    loaded = [m for m in REFERENCE_IMPORTS if m in sys.modules]
    if loaded:
        raise RuntimeError(f"reference modules already imported: {loaded}")
    start = time.perf_counter()
    for name in REFERENCE_IMPORTS:
        importlib.import_module(name)
    return time.perf_counter() - start


def rescale(seconds: float, references) -> float:
    """`seconds` of work during which the reference kernel took
    `references` seconds, expressed at the reference speed."""
    return seconds * REFERENCE_S * statistics.fmean(1.0 / r for r in references)


class Sampler:
    """Times calls and rescales them by the machine speed during each call.

    A SIGALRM handler times the reference kernel every `interval` seconds
    while the call runs; the handler's own time is excluded from the call's.
    With interval 0 only the ends of each call are sampled.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self._last = reference_seconds()

    def measure(self, fn, *args):
        """Returns (seconds, rescaled seconds, fn's result)."""
        samples, spent = [self._last], 0.0

        def tick(signum, frame):
            nonlocal spent
            start = time.perf_counter()
            samples.append(reference_seconds())
            spent += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._last = reference_seconds()
        samples.append(self._last)
        seconds = elapsed - spent
        return seconds, rescale(seconds, samples), result
