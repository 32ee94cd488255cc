"""Tests for the fitted per-broker load estimator (online reallocation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.estimator import DEFAULT_WINDOW, BrokerLoadEstimator, LoadSample


def linear_feed(estimator, broker="b1", intercept=10.0, slope=1.0, points=6):
    for step in range(points):
        t = float(step)
        estimator.observe(LoadSample(t=t, broker_id=broker,
                                     load=intercept + slope * t))


class TestFit:
    def test_recovers_exact_line(self):
        estimator = BrokerLoadEstimator()
        linear_feed(estimator, intercept=10.0, slope=1.5)
        fitted_intercept, fitted_slope = estimator.fit("b1")
        assert fitted_intercept == pytest.approx(10.0)
        assert fitted_slope == pytest.approx(1.5)

    def test_single_sample_is_constant_fit(self):
        estimator = BrokerLoadEstimator()
        estimator.observe(LoadSample(t=4.0, broker_id="b1", load=7.0))
        assert estimator.fit("b1") == (7.0, 0.0)
        assert estimator.predict("b1") == 7.0

    def test_coincident_timestamps_degrade_to_mean(self):
        estimator = BrokerLoadEstimator()
        estimator.observe(LoadSample(t=2.0, broker_id="b1", load=4.0))
        estimator.observe(LoadSample(t=2.0, broker_id="b1", load=8.0))
        intercept, slope = estimator.fit("b1")
        assert intercept == pytest.approx(6.0)
        assert slope == 0.0

    def test_unknown_broker_is_zero(self):
        estimator = BrokerLoadEstimator()
        assert estimator.fit("ghost") == (0.0, 0.0)
        assert estimator.predict("ghost") == 0.0

    def test_window_slides(self):
        estimator = BrokerLoadEstimator(window=3)
        # Early flat phase, then a ramp; the window must forget the
        # flat samples and fit the ramp alone.
        for t in range(10):
            load = 5.0 if t < 7 else 5.0 + 2.0 * (t - 7)
            estimator.observe(LoadSample(t=float(t), broker_id="b1", load=load))
        _, slope = estimator.fit("b1")
        assert slope == pytest.approx(2.0)


class TestPredict:
    def test_prediction_clamped_at_zero(self):
        # A burst, then silence: the fitted line ends below zero at the
        # latest sample (4.17 - 0.83 * 7 = -1.67).
        estimator = BrokerLoadEstimator()
        for t in range(8):
            estimator.observe(LoadSample(t=float(t), broker_id="b1",
                                         load=10.0 if t == 0 else 0.0))
        intercept, slope = estimator.fit("b1")
        assert intercept + slope * 7.0 < 0.0
        assert estimator.predict("b1") == 0.0

    def test_predicted_loads_sorted_and_complete(self):
        estimator = BrokerLoadEstimator()
        estimator.observe_loads(1.0, {"b2": 2.0, "b1": 1.0, "b3": 3.0})
        loads = estimator.predicted_loads()
        assert list(loads) == ["b1", "b2", "b3"]
        assert loads["b2"] == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BrokerLoadEstimator(window=0)


class TestDrift:
    def test_zero_against_own_predictions(self):
        estimator = BrokerLoadEstimator()
        linear_feed(estimator, intercept=3.0, slope=0.5)
        assert estimator.drift(estimator.predicted_loads()) == pytest.approx(0.0)

    def test_empty_union_is_zero(self):
        assert BrokerLoadEstimator().drift({}) == 0.0

    def test_idle_baseline_broker_uses_mean_scale(self):
        estimator = BrokerLoadEstimator()
        estimator.observe(LoadSample(t=0.0, broker_id="b1", load=10.0))
        estimator.observe(LoadSample(t=1.0, broker_id="b1", load=10.0))
        # b2 was idle at the baseline; its deviation is divided by the
        # mean positive baseline load (10.0), not by ~0.
        estimator.observe(LoadSample(t=0.0, broker_id="b2", load=5.0))
        estimator.observe(LoadSample(t=1.0, broker_id="b2", load=5.0))
        drift = estimator.drift({"b1": 10.0, "b2": 0.0})
        assert drift == pytest.approx(0.5)

    def test_growth_registers(self):
        estimator = BrokerLoadEstimator()
        linear_feed(estimator, intercept=10.0, slope=1.0, points=8)
        baseline = {"b1": 10.0}
        assert estimator.drift(baseline) > 0.5


# ----------------------------------------------------------------------
# Determinism: same stream, same model — bit for bit
# ----------------------------------------------------------------------

sample_strategy = st.tuples(
    st.integers(min_value=0, max_value=50),           # time step
    st.sampled_from(["b1", "b2", "b3"]),              # broker
    st.integers(min_value=0, max_value=10_000),       # load in 0.01 kB/s
)


@settings(max_examples=50)
@given(st.lists(sample_strategy, max_size=60), st.integers(2, DEFAULT_WINDOW))
def test_identical_streams_fit_identically(raw_samples, window):
    streams = []
    for _ in range(2):
        estimator = BrokerLoadEstimator(window=window)
        for step, broker_id, centiload in raw_samples:
            estimator.observe(LoadSample(
                t=step / 2.0, broker_id=broker_id, load=centiload / 100.0,
            ))
        streams.append((
            estimator.broker_ids,
            [estimator.fit(broker) for broker in estimator.broker_ids],
            repr(estimator.predicted_loads()),
            estimator.drift({"b1": 1.0, "b2": 0.0}),
        ))
    assert repr(streams[0]) == repr(streams[1])


@settings(max_examples=50)
@given(st.lists(sample_strategy, min_size=1, max_size=40))
def test_predictions_never_negative(raw_samples):
    estimator = BrokerLoadEstimator(window=4)
    for step, broker_id, centiload in raw_samples:
        estimator.observe(LoadSample(
            t=float(step), broker_id=broker_id, load=centiload / 100.0,
        ))
    for broker_id in estimator.broker_ids:
        assert estimator.predict(broker_id) >= 0.0
