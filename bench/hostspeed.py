"""Host speed, from a fixed piece of benchmark-owned work timed during the run.

The host the benchmark runs on is shared, and its speed changes by up to
2.5 times within a minute as other tenants' load comes and goes (DESIGN.md,
Estimator). While a `HostClock` runs, a wall-clock interval timer
interrupts the benchmark every EVERY_S seconds, in the main thread, to
time a calibration task of about a millisecond. Samples land inside long
operations as well as between short ones.

An operation's time is its wall time minus the time the clock spent
sampling during it, scaled by the task's reference time over the median of
the samples taken from just before the operation to just after it: the
time it would take on a host where the task takes its reference time. No
fsmforge code runs in a task, so a change to fsmforge moves only the
operation's side of the ratio.

Contention slows different work by different amounts, so each workload
names the task that does the same kind of work as its operations:

* `small_models`: tokenize, read and render a 12-transition model with
  the benchmark's reference code: interpreter-bound, like scenario steps and
  CLI commands on small files.
* `large_text`: count newlines before 50 offsets of a 200 KB text: a scan
  of a large string, like the source-position lookups that dominate the
  lexer on large generated listings.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import reference as ref
from inputs import rng_for, synthetic_model


def _model_text() -> str:
    return ref.to_dsl(synthetic_model(rng_for(0, "hostspeed"), 1, 12), canonical=False)


def _small_models():
    text = _model_text()
    code = "\n".join(line.split("#", 1)[0] for line in text.splitlines())

    def task():
        ref.token_texts(code)
        ref.to_dsl(ref.read_fsm(text))
    return task


def _large_text():
    text = _model_text()
    big = text * (200_000 // len(text))

    def task():
        for end in range(0, len(big), 4000):
            big.count("\n", 0, end)
    return task


# Each task with its reference time: its shortest time in 1,000 runs in
# isolation on a 2-vCPU 2.0 GHz Xeon with Python 3.11.7. It fixes only the
# scale of the reported times, not how they compare between commits.
TASKS = {"small_models": (_small_models, 1.2e-3), "large_text": (_large_text, 2.0e-3)}
EVERY_S = 0.05


class HostClock:
    """Calibration samples, taken on a timer while the clock runs (`with clock:`)."""

    def __init__(self, task: str):
        make, self.ref_s = TASKS[task]
        self.task = task
        self._task = make()
        self.samples: list[float] = []   # seconds per run of the task
        self.stamps: list[float] = []    # perf_counter() at the end of each sample
        self.spent = 0.0                 # seconds spent sampling so far
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:   # the timer fired while a sample was being taken
            return
        self._busy = True
        try:
            t0 = perf_counter()
            self._task()
            t1 = perf_counter()
            self.samples.append(t1 - t0)
            self.stamps.append(t1)
            self.spent += t1 - t0
        finally:
            self._busy = False

    def __enter__(self) -> "HostClock":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def speed(self) -> float:
        """The host's median speed over all samples, as a share of the reference."""
        return self.ref_s / statistics.median(self.samples)

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second from t0 to t1."""
        lo = max(bisect.bisect_left(self.stamps, t0) - 1, 0)
        hi = bisect.bisect_right(self.stamps, t1) + 1
        return self.ref_s / statistics.median(self.samples[lo:hi])
