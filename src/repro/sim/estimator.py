"""Fitted per-broker load estimators over deterministic counter streams.

The online reallocation scheduler (see :mod:`repro.experiments.
continuous`) needs to know, *between* full CROC cycles, which brokers
are drifting towards overload and which have headroom to spare.  The
simulation already produces the raw signal deterministically: the
metrics collector counts per-broker output bytes over each window.
This module turns that stream into small fitted models:

* a :class:`LoadSample` is one (virtual time, broker, load) observation
  — load is whatever unit the caller samples (the scheduler feeds
  output kB/s, the unit the capacity model bounds);
* a :class:`BrokerLoadEstimator` keeps a sliding window of samples per
  broker and fits an ordinary least-squares line through them, so
  :meth:`~BrokerLoadEstimator.predict` reads the smoothed trend at the
  latest sample instead of reacting to that sample alone.

Every input is derived from the virtual clock and integer counters, and
the fit is pure float arithmetic over an ordered window — so the same
counter stream always produces the same predictions, bit for bit
(pinned by ``tests/test_estimator.py``).  No wall clock, no randomness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Tuple

from repro.core.floats import EPSILON, approx_zero

#: Default sliding-window length (samples per broker) for the fit.
DEFAULT_WINDOW = 8


@dataclass(frozen=True)
class LoadSample:
    """One deterministic load observation for one broker.

    ``load`` is the broker's observed output rate over the elapsed
    sampling interval (the scheduler samples kB/s, matching the
    capacity model's ``total_output_bandwidth`` unit).
    """

    t: float
    broker_id: str
    load: float


class BrokerLoadEstimator:
    """Per-broker least-squares load model over a sliding window.

    Parameters
    ----------
    window:
        Samples retained per broker.  Two are enough to fit a line;
        with fewer than two the estimator falls back to the last
        observed load (or 0.0 before any observation).
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._samples: Dict[str, Deque[LoadSample]] = {}

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def observe(self, sample: LoadSample) -> None:
        """Append one sample to its broker's window."""
        window = self._samples.get(sample.broker_id)
        if window is None:
            window = self._samples[sample.broker_id] = deque(maxlen=self.window)
        window.append(sample)

    def observe_loads(self, t: float, loads: Mapping[str, float]) -> None:
        """Record one sample per broker, in sorted broker order."""
        for broker_id in sorted(loads):
            self.observe(LoadSample(t=t, broker_id=broker_id,
                                    load=loads[broker_id]))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def broker_ids(self) -> List[str]:
        """Brokers with at least one sample, sorted."""
        return sorted(self._samples)

    def fit(self, broker_id: str) -> Tuple[float, float]:
        """Least-squares ``(intercept, slope)`` for one broker's window.

        With fewer than two samples — or a degenerate window where all
        timestamps coincide — the fit degrades to a constant: the mean
        load with zero slope.
        """
        window = self._samples.get(broker_id)
        if not window:
            return 0.0, 0.0
        count = len(window)
        mean_t = sum(sample.t for sample in window) / count
        mean_load = sum(sample.load for sample in window) / count
        if count < 2:
            return mean_load, 0.0
        var_t = sum((sample.t - mean_t) ** 2 for sample in window)
        if approx_zero(var_t):
            return mean_load, 0.0
        cov = sum(
            (sample.t - mean_t) * (sample.load - mean_load)
            for sample in window
        )
        slope = cov / var_t
        intercept = mean_load - slope * mean_t
        return intercept, slope

    def predict(self, broker_id: str) -> float:
        """Predicted load for ``broker_id`` at its latest sample time.

        Predictions are clamped at zero — a fitted downward trend never
        promises negative load.
        """
        window = self._samples.get(broker_id)
        if not window:
            return 0.0
        intercept, slope = self.fit(broker_id)
        predicted = intercept + slope * window[-1].t
        return predicted if predicted > 0.0 else 0.0

    def predicted_loads(self) -> Dict[str, float]:
        """``{broker_id: predicted load}`` over all observed brokers.

        Keys are inserted in sorted order so iteration over the result
        is deterministic.
        """
        return {
            broker_id: self.predict(broker_id)
            for broker_id in self.broker_ids
        }

    def drift(self, baseline: Mapping[str, float]) -> float:
        """Largest relative deviation of predicted load from a baseline.

        ``baseline`` maps broker ids to the loads captured at the last
        full reconfiguration.  The result is
        ``max_b |predicted_b - baseline_b| / max(baseline_b, scale)``
        where ``scale`` is the mean baseline load — so brokers that
        were idle at the baseline cannot blow the ratio up through a
        near-zero denominator.  Brokers present on only one side count
        with the missing side at 0.0.  Returns 0.0 for an empty union.
        """
        ids = sorted(set(baseline) | set(self._samples))
        if not ids:
            return 0.0
        positives = [value for value in baseline.values() if value > EPSILON]
        scale = sum(positives) / len(positives) if positives else 1.0
        worst = 0.0
        for broker_id in ids:
            expected = baseline.get(broker_id, 0.0)
            predicted = self.predict(broker_id)
            denominator = expected if expected > scale else scale
            deviation = abs(predicted - expected) / denominator
            if deviation > worst:
                worst = deviation
        return worst
