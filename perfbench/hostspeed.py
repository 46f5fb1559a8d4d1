"""The host's speed, measured with a fixed numpy kernel between repetitions.

The benchmark runs on a shared host whose speed drifts by 30% and more over
minutes. A throughput divided by the host speed measured in the same minutes
drifts far less (see README.md, "Run-to-run spread"). The kernel is plain
numpy and never imports groupopt, so a change to groupopt cannot move it:
one group-Adagrad step with a row-wise group shrink on a fixed 10,000 x 8
table, the kind of work groupopt's optimizers do.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ROWS, DIM = 10_000, 8
LR, LAMBDA21, EPS = 0.05, 1e-3, 1e-8
# One reference-second is the time the host takes for this many kernel steps:
# roughly a second on a 2.1 GHz Xeon VM.
REF_STEPS = 700
SHARE = 0.1        # kernel time per repetition, as a share of the last repetition
MIN_STEPS = 20     # kernel steps before every repetition, whatever its length


class HostSpeed:
    """Times kernel steps; ref_s() is the median step time x REF_STEPS."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._weights = rng.standard_normal((ROWS, DIM))
        self._grad = rng.standard_normal((ROWS, DIM))
        self._accum = rng.random((ROWS, DIM))
        self.step_seconds: list[float] = []

    def _step(self) -> None:
        # Each step starts from the same inputs, so every step does the same work.
        accum = self._accum + self._grad * self._grad
        weights = self._weights - LR * self._grad / (np.sqrt(accum) + EPS)
        norms = np.linalg.norm(weights, axis=1)
        weights *= np.maximum(0.0, 1.0 - LAMBDA21 / np.maximum(norms, EPS))[:, None]

    def sample(self, seconds: float) -> None:
        """Time kernel steps for about `seconds`, and at least MIN_STEPS of them."""
        start = time.perf_counter()
        steps = 0
        while steps < MIN_STEPS or time.perf_counter() - start < seconds:
            begin = time.perf_counter()
            self._step()
            self.step_seconds.append(time.perf_counter() - begin)
            steps += 1

    def ref_s(self) -> float:
        return statistics.median(self.step_seconds) * REF_STEPS
