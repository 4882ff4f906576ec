"""Tests for the collector, classifier and interface grid agents."""

import pytest

from repro.agents.acl import ACLMessage, MessageTemplate, Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import CyclicBehaviour
from repro.agents.platform import AgentPlatform
from repro.core.classifier import (
    CLUSTER_STRATEGIES,
    ClassifierAgent,
    cluster_by_device,
    cluster_by_group,
    cluster_by_site,
)
from repro.core.collector import CollectorAgent
from repro.core.costs import CostModel, TaskKind
from repro.core.interface import Channel, EmailChannel, HtmlChannel, InterfaceAgent
from repro.core.records import CollectionGoal
from repro.core.reports import Finding, ManagementReport
from repro.core.storage import ManagementDataStore
from repro.network.topology import Network
from repro.network.transport import Transport
from repro.simkernel.simulator import Simulator
from repro.snmp.device import ManagedDevice
from repro.snmp.engine import SnmpEngine


class Sink(Agent):
    """Receives and remembers all messages."""

    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def setup(self):
        agent = self

        class Collect(CyclicBehaviour):
            def step(self):
                message = yield from self.receive()
                if message is not None:
                    agent.got.append(message)

        self.add_behaviour(Collect())


@pytest.fixture
def world():
    sim = Simulator(seed=11)
    network = Network(sim)
    transport = Transport(network)
    platform = AgentPlatform(sim, network, transport)
    device_host = network.add_host("dev1", "site1", role="device")
    device = ManagedDevice(sim, device_host, profile="server", tick=0.5)
    SnmpEngine(device, transport)
    collector_host = network.add_host("col1", "site1", role="collector")
    sink_host = network.add_host("sinkhost", "site1", role="storage")
    collector_container = platform.create_container("cc", collector_host)
    sink_container = platform.create_container("sc", sink_host)
    return (sim, network, platform, device, collector_container,
            sink_container)


class TestCollector:
    def _run_collector(self, world, parse_locally=True, goals=None,
                       batch_size=1):
        sim, network, platform, device, collector_container, sink_container \
            = world
        sink = Sink("classifier")
        sink_container.deploy(sink)
        if goals is None:
            goals = [CollectionGoal("dev1", "A", count=2, interval=1.0)]
        collector = CollectorAgent(
            "col", goals=goals, classifier_name="classifier",
            parse_locally=parse_locally, batch_size=batch_size,
        )
        collector_container.deploy(collector)
        sim.run(until=100)
        return collector, sink

    def test_polls_produce_records(self, world):
        collector, sink = self._run_collector(world)
        assert collector.polls_completed == 2
        assert collector.records_shipped == 2
        records = [r for m in sink.got for r in m.content["records"]]
        assert len(records) == 2
        assert all(record.parsed for record in records)
        assert all(record.device == "dev1" for record in records)

    def test_request_and_parse_costs_charged(self, world):
        collector, _ = self._run_collector(world)
        cpu = collector.host.cpu
        model = collector.cost_model
        assert cpu.units_by_label[TaskKind.REQUEST] == \
            2 * model.request_cost("A").cpu
        assert cpu.units_by_label[TaskKind.PARSE] == \
            2 * model.parse_cost("A").cpu

    def test_raw_mode_skips_parse(self, world):
        collector, sink = self._run_collector(world, parse_locally=False)
        assert TaskKind.PARSE not in collector.host.cpu.units_by_label
        records = [r for m in sink.got for r in m.content["records"]]
        assert all(not record.parsed for record in records)
        assert records[0].size_units == collector.cost_model.raw_record_size

    def test_batching_reduces_envelopes(self, world):
        goals = [CollectionGoal("dev1", "A", count=4, interval=0.5)]
        collector, sink = self._run_collector(
            world, goals=goals, batch_size=4)
        assert collector.records_shipped == 4
        assert len(sink.got) == 1  # one envelope

    def test_poll_network_cost_matches_table1(self, world):
        collector, _ = self._run_collector(world)
        net = collector.host.nic.units_by_label["snmp"]
        assert net == pytest.approx(
            2 * collector.cost_model.request_cost("A").net)

    def test_dead_device_counts_failures(self, world):
        sim, network, platform, device, collector_container, sink_container \
            = world
        network.host("dev1").fail()
        sink = Sink("classifier")
        sink_container.deploy(sink)
        collector = CollectorAgent(
            "col", goals=[CollectionGoal("dev1", "A", count=1)],
            classifier_name="classifier",
        )
        collector_container.deploy(collector)
        sim.run(until=100)
        assert collector.polls_failed == 1
        assert collector.records_shipped == 0

    def test_idle_event_fires_when_goals_finish(self, world):
        collector, _ = self._run_collector(world)
        assert collector.idle_event.triggered

    def test_runtime_goal_addition(self, world):
        collector, sink = self._run_collector(world)
        before = collector.polls_completed
        collector.add_goal(CollectionGoal("dev1", "B", count=1))
        collector.sim.run(until=200)
        assert collector.polls_completed == before + 1

    def test_multiple_goal_types_map_to_groups(self, world):
        goals = [
            CollectionGoal("dev1", "A", count=1),
            CollectionGoal("dev1", "B", count=1),
            CollectionGoal("dev1", "C", count=1),
        ]
        collector, sink = self._run_collector(world, goals=goals)
        records = [r for m in sink.got for r in m.content["records"]]
        groups = sorted(record.group for record in records)
        assert groups == ["performance", "storage", "traffic"]


class TestClassifier:
    def _world_with_classifier(self, world, **kwargs):
        sim, network, platform, device, collector_container, sink_container \
            = world
        store = ManagementDataStore(sink_container.host)
        root_sink = Sink("pg-root")
        collector_container.deploy(root_sink)  # root lives elsewhere
        classifier = ClassifierAgent(
            "classifier", store=store, processor_name="pg-root", **kwargs)
        sink_container.deploy(classifier)
        collector = CollectorAgent(
            "col",
            goals=[
                CollectionGoal("dev1", "A", count=2, interval=0.5),
                CollectionGoal("dev1", "B", count=1),
            ],
            classifier_name="classifier",
        )
        collector_container.deploy(collector)
        return sim, classifier, store, root_sink

    def test_classifies_stores_and_notifies(self, world):
        sim, classifier, store, root_sink = self._world_with_classifier(
            world, dataset_threshold=3)
        sim.run(until=100)
        assert classifier.records_classified == 3
        assert store.records_stored == 3
        assert classifier.datasets_published == 1
        notify = root_sink.got[0]
        assert notify.content["record_count"] == 3
        assert sorted(notify.content["clusters"]) == \
            ["performance", "storage"]
        assert notify.content["cluster_sizes"]["performance"] == 2

    def test_flush_timeout_publishes_partial_dataset(self, world):
        sim, classifier, store, root_sink = self._world_with_classifier(
            world, dataset_threshold=100, flush_timeout=2.0)
        sim.run(until=100)
        assert classifier.datasets_published >= 1
        assert sum(m.content["record_count"] for m in root_sink.got) == 3

    def test_parses_raw_records(self, world):
        sim, network, platform, device, collector_container, sink_container \
            = world
        store = ManagementDataStore(sink_container.host)
        root_sink = Sink("pg-root")
        collector_container.deploy(root_sink)
        classifier = ClassifierAgent(
            "classifier", store=store, processor_name="pg-root",
            dataset_threshold=1)
        sink_container.deploy(classifier)
        collector = CollectorAgent(
            "col", goals=[CollectionGoal("dev1", "A", count=1)],
            classifier_name="classifier", parse_locally=False,
        )
        collector_container.deploy(collector)
        sim.run(until=100)
        assert classifier.host.cpu.units_by_label[TaskKind.PARSE] == \
            classifier.cost_model.parse_cost("A").cpu

    def test_cluster_strategies(self):
        class R:
            group = "performance"
            device = "d9"
            site = "s7"

        assert cluster_by_group(R()) == "performance"
        assert cluster_by_device(R()) == "device:d9"
        assert cluster_by_site(R()) == "site:s7"
        assert set(CLUSTER_STRATEGIES) == {"by-group", "by-device", "by-site"}

    def test_unknown_strategy_rejected(self, world):
        sim, network, platform, device, collector_container, sink_container \
            = world
        store = ManagementDataStore(sink_container.host)
        with pytest.raises(ValueError):
            ClassifierAgent("x", store=store, processor_name="p",
                            cluster_strategy="by-vibes")

    def test_colocation_enforced(self, world):
        sim, network, platform, device, collector_container, sink_container \
            = world
        store = ManagementDataStore(sink_container.host)
        classifier = ClassifierAgent("x", store=store, processor_name="p")
        with pytest.raises(RuntimeError):
            collector_container.deploy(classifier)  # wrong host


class TestInterface:
    def _deploy_interface(self, world, **kwargs):
        sim, network, platform, device, collector_container, sink_container \
            = world
        interface = InterfaceAgent("iface", **kwargs)
        sink_container.deploy(interface)
        return sim, platform, interface, collector_container

    def _report(self, severity="critical"):
        return ManagementReport(
            "report-1", "ds-1", [Finding("high-cpu", severity, "d1", "s1")],
            5, 1.0)

    def _send_report(self, platform, interface, report):
        sender = Sink("root-sender")
        platform.containers["cc"].deploy(sender)
        sender.send(ACLMessage(
            Performative.INFORM, "root-sender", "iface",
            content={"report": report}, ontology="management-report",
            size_units=2.0,
        ))

    def test_report_rendered_on_all_channels(self, world):
        sim, platform, interface, _ = self._deploy_interface(
            world, channels=[Channel("console"), HtmlChannel(),
                             EmailChannel()])
        self._send_report(platform, interface, self._report())
        sim.run(until=50)
        assert len(interface.reports) == 1
        for channel in interface.channels:
            assert len(channel.delivered_reports) == 1
        html = interface.channels[1].delivered_reports[0][1]
        assert html.startswith("<html>")

    def test_critical_findings_raise_alerts(self, world):
        sim, platform, interface, _ = self._deploy_interface(world)
        self._send_report(platform, interface, self._report("critical"))
        sim.run(until=50)
        assert len(interface.alerts) == 1

    def test_low_severity_no_alert(self, world):
        sim, platform, interface, _ = self._deploy_interface(world)
        self._send_report(platform, interface, self._report("warning"))
        sim.run(until=50)
        assert interface.alerts == []
        assert len(interface.reports) == 1

    def test_reports_event_triggers_at_count(self, world):
        sim, platform, interface, _ = self._deploy_interface(world)
        event = interface.reports_event(1)
        assert not event.triggered
        self._send_report(platform, interface, self._report())
        sim.run(until=50)
        assert event.triggered
        # already-satisfied count triggers immediately
        assert interface.reports_event(1).triggered

    def test_render_charges_cpu(self, world):
        sim, platform, interface, _ = self._deploy_interface(world)
        self._send_report(platform, interface, self._report())
        sim.run(until=50)
        assert interface.host.cpu.units_by_label["render"] > 0

    def test_feedback_goal_submission(self, world):
        sim, platform, interface, collector_container = \
            self._deploy_interface(world)
        collector = CollectorAgent(
            "col", goals=[], classifier_name="nowhere")
        collector_container.deploy(collector)
        interface.submit_goal(
            CollectionGoal("dev1", "A", count=1), "col")
        sim.run(until=100)
        assert collector.polls_completed == 1
        assert interface.feedback_log[0][0] == "goal"
        with pytest.raises(KeyError):
            interface.submit_goal(CollectionGoal("dev1", "A"), "ghost")
