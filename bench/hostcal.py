"""Host calibration loop for normalising timings against host speed drift.

The loop is a fixed piece of work of about 1 ms on the reference host
(2-core KVM guest, Python 3.11, NumPy 2.4): interpreted Python over
floats, tuples and sets, like the tracker's union-area and lifecycle
code, then 512x192 matrix-vector products, like an LSTM cell. The
benchmark runs it before every frame, every train_lstm call and every
evaluate call, and scales the timings of each scene visit by
C_REF_S / c, where c is the median loop time during that visit.
Normalisation assumes that host drift slows this loop and the program
alike.

Over 89 interleaved samples of one crowd scene, this mix narrowed the
spread of tracking time more than small-array NumPy calls did (windowed
coefficient of variation 3.9% against 5.4%, raw 6.1%). Training time,
which is mostly BLAS, followed no loop tried from second to second
(correlation 0.20-0.25), but across host states it moves about half as
far as the loop does on a log scale: when the loop's median fell from
about 1150 to 700 us, jam's training fell from 92 to 72 ms/step. Timings
of training are therefore scaled by the square root of the factor.

The loop and C_REF_S belong to the benchmark: they must never change
with the program, or normalised figures stop being comparable.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

C_REF_S = 1.0e-3  # the loop's typical median time on the reference host
TRAIN_ELASTICITY = 0.5  # training time moves as the loop's time ** 0.5

_RNG = np.random.default_rng(20181126)
_RECTS = [tuple(float(v) for v in r) for r in _RNG.uniform(0.0, 100.0, size=(6, 4)).cumsum(axis=1)]
_W = _RNG.normal(size=(512, 192))
_X = _RNG.normal(size=192)


def calibration_loop() -> float:
    """The fixed calibration work; returns a checksum so nothing is skipped."""
    total = 0.0
    for _ in range(8):
        xs = sorted({0.0, 400.0, *(r[0] for r in _RECTS), *(r[2] for r in _RECTS)})
        ys = sorted({0.0, 400.0, *(r[1] for r in _RECTS), *(r[3] for r in _RECTS)})
        for i in range(len(xs) - 1):
            cx = 0.5 * (xs[i] + xs[i + 1])
            for j in range(len(ys) - 1):
                cy = 0.5 * (ys[j] + ys[j + 1])
                for r in _RECTS:
                    if r[0] <= cx <= r[2] and r[1] <= cy <= r[3]:
                        total += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
                        break
    x = _X
    for _ in range(6):
        x = _W.T @ np.tanh(_W @ x) * 0.01
    return total + float(x[0])


class Calibrator:
    """Collects calibration-loop samples over one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        self.samples.append(time.perf_counter() - t0)

    @property
    def median_s(self) -> float:
        """c_run; the median ignores samples cut by preemption."""
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Multiply a raw time of this run by this to normalise it."""
        return C_REF_S / self.median_s

    def factor_since(self, first: int) -> float:
        """The factor from the samples taken since sample number `first`."""
        return C_REF_S / statistics.median(self.samples[first:])


def train_factor(factor: float) -> float:
    """The normalising factor for training time, from a loop factor."""
    return factor**TRAIN_ELASTICITY
