"""Tests for the classifier's counter-to-rate derivation."""

import pytest

from repro.agents.platform import AgentPlatform
from repro.core.classifier import ClassifierAgent
from repro.core.records import ManagementRecord
from repro.core.storage import ManagementDataStore
from repro.network.topology import Network
from repro.network.transport import Transport
from repro.simkernel.simulator import Simulator


def traffic_record(device, octets, time, instance=1):
    return ManagementRecord(
        device, "s1", "C", "traffic", [("if_in_octets", instance, octets)],
        time,
        size_units=1.5, parsed=True,
    )


@pytest.fixture
def classifier_world():
    sim = Simulator(seed=3)
    network = Network(sim)
    host = network.add_host("stor", "site1", role="storage")
    transport = Transport(network)
    platform = AgentPlatform(sim, network, transport)
    container = platform.create_container("sc", host)
    store = ManagementDataStore(host)
    classifier = ClassifierAgent(
        "classifier", store=store, processor_name="nobody",
        dataset_threshold=1000, flush_timeout=1000.0,
    )
    container.deploy(classifier)
    return sim, classifier, store


def _classify(sim, classifier, records):
    process = sim.spawn(classifier._classify_batch(records))
    sim.run(until=sim.now + 100)
    assert process.done


class TestRateDerivation:
    def test_first_observation_seeds_no_rate(self, classifier_world):
        sim, classifier, store = classifier_world
        _classify(sim, classifier, [traffic_record("r1", 1000, 1.0)])
        assert store.history("r1", "if_in_rate", 1) == []

    def test_second_observation_yields_rate(self, classifier_world):
        sim, classifier, store = classifier_world
        _classify(sim, classifier, [traffic_record("r1", 1000, 1.0)])
        second = traffic_record("r1", 3000, 3.0)
        _classify(sim, classifier, [second])
        points = store.history("r1", "if_in_rate", 1)
        assert points == [(3.0, pytest.approx(1000.0))]  # (3000-1000)/(3-1)
        assert second.values[1:] == [("if_in_rate", 1, pytest.approx(1000.0))]

    def test_counter_wrap_reseeds(self, classifier_world):
        sim, classifier, store = classifier_world
        _classify(sim, classifier, [traffic_record("r1", 5000, 1.0)])
        _classify(sim, classifier, [traffic_record("r1", 100, 2.0)])  # wrap
        assert store.history("r1", "if_in_rate", 1) == []
        _classify(sim, classifier, [traffic_record("r1", 600, 3.0)])
        points = store.history("r1", "if_in_rate", 1)
        assert points[0][1] == pytest.approx(500.0)

    def test_instances_tracked_independently(self, classifier_world):
        sim, classifier, store = classifier_world
        _classify(sim, classifier, [
            traffic_record("r1", 1000, 1.0, instance=1),
            traffic_record("r1", 9000, 1.0, instance=2),
        ])
        _classify(sim, classifier, [
            traffic_record("r1", 2000, 2.0, instance=1),
            traffic_record("r1", 19000, 2.0, instance=2),
        ])
        assert store.history("r1", "if_in_rate", 1)[0][1] == \
            pytest.approx(1000.0)
        assert store.history("r1", "if_in_rate", 2)[0][1] == \
            pytest.approx(10000.0)

    def test_devices_tracked_independently(self, classifier_world):
        sim, classifier, store = classifier_world
        _classify(sim, classifier, [traffic_record("r1", 1000, 1.0)])
        _classify(sim, classifier, [traffic_record("r2", 5000, 2.0)])
        # r2's first sample must not pair with r1's
        assert store.history("r2", "if_in_rate", 1) == []

    def test_non_counter_metrics_untouched(self, classifier_world):
        sim, classifier, store = classifier_world
        record = ManagementRecord(
            "r1", "s1", "A", "performance", [("cpu_load", None, 50.0)], 1.0,
            size_units=1.5, parsed=True,
        )
        _classify(sim, classifier, [record])
        assert record.values == [("cpu_load", None, 50.0)]
