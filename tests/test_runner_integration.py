"""End-to-end integration tests: the full experiment pipeline.

These are the paper's evaluation in miniature: a scaled-down
homogeneous cluster, every approach, and the qualitative claims the
paper makes (CRAM allocates fewest brokers, reduces the average broker
message rate, and improves hop counts; baselines keep all brokers).
"""

import pytest

from repro.experiments.runner import APPROACHES, ExperimentRunner
from repro.workloads.scenarios import cluster_heterogeneous, cluster_homogeneous

from per_delivery_oracle import networks_built


@pytest.fixture(scope="module")
def tiny_scenario():
    return cluster_homogeneous(
        subscriptions_per_publisher=12,
        scale=0.1,
        profile_capacity=96,
        measurement_time=30.0,
    )


@pytest.fixture(scope="module")
def results(tiny_scenario):
    """Run a subset of approaches once; share across assertions."""
    out = {}
    for approach in ("manual", "automatic", "binpacking", "cram-ios"):
        runner = ExperimentRunner(tiny_scenario, seed=11)
        out[approach] = runner.run(approach)
    return out


class TestPipeline:
    def test_unknown_approach_rejected(self, tiny_scenario):
        with pytest.raises(ValueError):
            ExperimentRunner(tiny_scenario).run("simulated-annealing")

    def test_approaches_constant_lists_all_eleven(self):
        # 4 baselines + 6 registry builtins + 1 online.
        assert len(APPROACHES) == 11
        assert "inc-trade" not in APPROACHES
        assert "fij-trade" in APPROACHES

    def test_manual_baseline_uses_all_brokers(self, results, tiny_scenario):
        manual = results["manual"]
        assert manual.allocated_brokers == tiny_scenario.broker_count
        assert manual.message_rate_reduction == 0.0
        assert manual.summary.delivery_count > 0

    def test_automatic_keeps_all_brokers(self, results, tiny_scenario):
        assert results["automatic"].allocated_brokers == tiny_scenario.broker_count

    def test_croc_approaches_deallocate_brokers(self, results, tiny_scenario):
        for approach in ("binpacking", "cram-ios"):
            assert results[approach].allocated_brokers < tiny_scenario.broker_count

    def test_croc_approaches_reduce_message_rate(self, results):
        for approach in ("binpacking", "cram-ios"):
            assert results[approach].message_rate_reduction > 0.3

    def test_croc_approaches_improve_hop_count(self, results):
        manual_hops = results["manual"].summary.mean_hop_count
        for approach in ("binpacking", "cram-ios"):
            assert results[approach].summary.mean_hop_count < manual_hops

    def test_deliveries_continue_after_reconfiguration(self, results):
        for approach in ("binpacking", "cram-ios"):
            assert results[approach].summary.delivery_count > 0

    def test_no_subscriber_starves_after_reconfiguration(self, tiny_scenario):
        """Every subscription that was sinking traffic when CROC profiled
        the system keeps receiving after the CRAM reconfiguration.
        (Subscribers whose predicates match nothing are excluded — an
        inequality threshold can legitimately select zero quotes.)"""
        runner = ExperimentRunner(tiny_scenario, seed=13)
        runner.run("cram-ios")
        network = runner.network
        # Template subscriptions (class+symbol only) match every quote
        # of their symbol, so they must keep flowing; inequality
        # subscriptions may legitimately dry up when the random-walk
        # price drifts past their threshold.
        active_subs = {
            subscriber.client_id
            for subscriber in network.subscribers.values()
            if all(len(s.predicates) == 2 for s in subscriber.subscriptions)
        }
        before = {
            client_id: subscriber.delivered
            for client_id, subscriber in network.subscribers.items()
        }
        network.run(30.0)
        starved = [
            client_id
            for client_id in active_subs
            if network.subscribers[client_id].delivered <= before[client_id]
        ]
        assert starved == []

    def test_cram_stats_populated(self, results):
        stats = results["cram-ios"].cram_stats
        assert stats is not None
        assert stats.initial_units == results["cram-ios"].total_subscriptions
        assert stats.initial_gifs <= stats.initial_units

    def test_gif_reduction_in_paper_direction(self, results):
        """40% template subscriptions per symbol guarantee reduction."""
        stats = results["cram-ios"].cram_stats
        assert stats.gif_reduction > 0.2

    def test_rows_are_serializable(self, results):
        for result in results.values():
            row = result.as_row()
            assert isinstance(row["approach"], str)
            assert row["subscriptions"] > 0

    @pytest.mark.parametrize("approach", APPROACHES)
    def test_every_approach_conserves_deliveries(self, approach):
        """Every copy sent toward a subscriber is delivered, dropped or
        in flight at each run boundary, whichever approach reconfigured
        the overlay (``conftest.ConservationWatch``)."""
        scenario = cluster_homogeneous(
            subscriptions_per_publisher=5, scale=0.08, measurement_time=6.0
        )
        with networks_built() as built:
            ExperimentRunner(scenario, seed=11).run(approach)
        [network] = built
        assert network.watch.checked >= 2
        assert network.watch.skipped == 0

    def test_reproducible_given_seed(self, tiny_scenario):
        a = ExperimentRunner(tiny_scenario, seed=5).run("binpacking")
        b = ExperimentRunner(tiny_scenario, seed=5).run("binpacking")
        assert a.allocated_brokers == b.allocated_brokers
        assert a.summary.total_broker_messages == b.summary.total_broker_messages
        assert a.summary.mean_hop_count == b.summary.mean_hop_count


class TestPairwiseApproaches:
    @pytest.fixture(scope="class")
    def pairwise_results(self, tiny_scenario):
        out = {}
        for approach in ("pairwise-k", "pairwise-n"):
            runner = ExperimentRunner(tiny_scenario, seed=11, cram_failure_budget=40)
            out[approach] = runner.run(approach)
        return out

    def test_pairwise_runs_and_delivers(self, pairwise_results):
        for result in pairwise_results.values():
            assert result.summary.delivery_count > 0

    def test_pairwise_does_not_deallocate(self, pairwise_results, tiny_scenario):
        for result in pairwise_results.values():
            assert result.allocated_brokers == tiny_scenario.broker_count


class TestHeterogeneous:
    def test_heterogeneous_pipeline(self):
        scenario = cluster_heterogeneous(
            ns=20, scale=0.1, profile_capacity=96, measurement_time=20.0
        )
        runner = ExperimentRunner(scenario, seed=3)
        result = runner.run("cram-ios")
        assert result.allocated_brokers < scenario.broker_count
        assert result.summary.delivery_count > 0

    def test_heterogeneous_prefers_resourceful_brokers(self):
        scenario = cluster_heterogeneous(
            ns=20, scale=0.1, profile_capacity=96, measurement_time=20.0
        )
        runner = ExperimentRunner(scenario, seed=3)
        runner.run("binpacking")
        specs = {s.broker_id: s for s in runner.network.broker_pool()}
        active = runner.network.active_brokers
        top_bandwidth = max(s.total_output_bandwidth for s in specs.values())
        assert any(
            specs[b].total_output_bandwidth == top_bandwidth for b in active
        )
