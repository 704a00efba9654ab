"""Gauges how fast the host runs right now, to normalise timed spans.

The benchmark host is a share of a machine whose other tenants come and
go: the same pass takes up to 2x longer for seconds to minutes at a
time, and the slowdown hits CPU-bound code of every kind about equally.
The reference kernel here is a fixed mix of the operations qreduce
spends its time in (complex FFTs, a small matrix product, elementwise
complex arithmetic and Python loop overhead) on fixed inputs.  Dividing
a span's time by the kernel's time measured while the span runs
(``SpeedProbe``), or just around it, cancels most of the slowdown.
``normalised`` rescales a time to seconds on an uncontended host.

The kernel uses numpy only, never qreduce, so no change to the package
can change it.

    python3 perfbench/calibrate.py    # times calibrate() 40 times
"""

import signal
import time

import numpy as np

ROUNDS = 800
# SpeedProbe: one short kernel run every PROBE_INTERVAL_S of wall time.
PROBE_ROUNDS = 10
PROBE_INTERVAL_S = 0.05
# Uncontended speed on a 2-vCPU x86 host at 2.1 GHz (Python 3.11.7,
# numpy 2.4.6, one BLAS thread): calibrate() alone, and one probe sample
# taken during a pass (slower per round, since the pass evicts the
# kernel's data), each in the quietest stretches seen over several
# minutes.  Normalised times read as seconds on that host when quiet.
CALIBRATE_REFERENCE_S = 0.06
PROBE_REFERENCE_S = 8.5e-4

_RNG = np.random.default_rng(20180622)
_WAVE = np.exp(1j * _RNG.uniform(0.0, 2.0 * np.pi, 2048))
_KERNEL = np.exp(-np.linspace(-4.0, 4.0, 2048) ** 2)
_MATRIX = _RNG.standard_normal((32, 32)) / 32.0


def calibrate(rounds: int = ROUNDS) -> float:
    """Seconds for ``rounds`` rounds of the fixed reference mix."""
    start = time.perf_counter()
    wave, total = _WAVE, 0.0
    for _ in range(rounds):
        wave = np.fft.ifft(_KERNEL * np.fft.fft(wave))
        wave = wave / np.abs(wave).max()
        total += float((_MATRIX @ wave[:32].real) @ wave[32:64].imag)
        for k in range(40):
            total += k * 1e-3
    elapsed = time.perf_counter() - start
    if not np.isfinite(total):
        raise ArithmeticError("calibration kernel diverged")
    return elapsed


def normalised(seconds: float, measured_s: float, reference_s: float) -> float:
    """``seconds`` taken while the kernel took ``measured_s``, rescaled to
    the speed at which it takes ``reference_s``."""
    return seconds * reference_s / measured_s


class SpeedProbe:
    """Samples the host speed while a span runs.

    Inside ``with SpeedProbe() as probe:`` an interval timer runs
    ``calibrate(PROBE_ROUNDS)`` from a SIGALRM handler every
    ``PROBE_INTERVAL_S``, about 2% of the time.  Python runs the handler
    between bytecodes, so a long call into numpy delays a sample but does
    not lose it.  ``spent_s`` is the time the samples took, to subtract
    from the span; ``sample_s`` is the mean time of one sample.  Main
    thread only.
    """

    def __init__(self):
        self.samples = 0
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        self.spent_s += calibrate(PROBE_ROUNDS)
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def sample_s(self) -> float:
        if not self.samples:
            # A span shorter than one interval: sample once now.
            self._sample(signal.SIGALRM, None)
        return self.spent_s / self.samples


if __name__ == "__main__":
    times = [calibrate() for _ in range(40)]
    print(f"calibrate(): fastest {min(times):.4f} s, slowest {max(times):.4f} s"
          f" (reference {CALIBRATE_REFERENCE_S} s)")
