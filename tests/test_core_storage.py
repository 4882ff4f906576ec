"""Unit tests for the management data store and storage agent."""

import pytest

from repro.agents.acl import ACLMessage, MessageTemplate, Performative
from repro.agents.agent import Agent
from repro.agents.platform import AgentPlatform
from repro.core.classifier import cluster_by_group
from repro.core.records import ManagementRecord
from repro.core.storage import ManagementDataStore, StorageAgent
from repro.network.topology import Network
from repro.network.transport import Transport
from repro.simkernel.simulator import Simulator


def make_record(device="d1", metric="cpu_load", value=50.0, time=1.0,
                group="performance", request_type="A"):
    return ManagementRecord(
        device, "s1", request_type, group, [(metric, None, value)], time,
        size_units=1.5, parsed=True,
    )


@pytest.fixture
def world():
    sim = Simulator(seed=2)
    network = Network(sim)
    storage_host = network.add_host("stor", "site1", role="storage")
    client_host = network.add_host("client", "site1", role="analysis")
    transport = Transport(network)
    platform = AgentPlatform(sim, network, transport)
    store = ManagementDataStore(storage_host)
    return sim, network, platform, store, storage_host, client_host


class TestDataStore:
    def test_store_charges_cpu_and_disk(self, world):
        sim, _, _, store, storage_host, _ = world

        def proc():
            stored = yield from store.store_records([make_record()])
            return stored

        process = sim.spawn(proc())
        sim.run(until=100)
        assert process.result == 1
        cost = store.cost_model.store_cost()
        assert storage_host.cpu.units_by_label["store"] == cost.cpu
        assert storage_host.disk.units_by_label["store"] == cost.disk

    def test_empty_store_is_noop(self, world):
        sim, _, _, store, storage_host, _ = world

        def proc():
            stored = yield from store.store_records([])
            return stored

        process = sim.spawn(proc())
        sim.run(until=10)
        assert process.result == 0
        assert storage_host.cpu.total_units == 0

    def test_dataset_clustering(self, world):
        sim, _, _, store, _, _ = world
        records = [
            make_record(metric="cpu_load", group="performance"),
            make_record(metric="disk_free", group="storage",
                        request_type="B"),
            make_record(metric="cpu_load", group="performance", device="d2"),
        ]

        def proc():
            yield from store.store_records(records, dataset_id="ds-t",
                                           cluster_of=cluster_by_group)

        sim.spawn(proc())
        sim.run(until=100)
        assert store.clusters_of("ds-t") == ["performance", "storage"]
        assert store.dataset_size("ds-t") == 3
        assert len(store.fetch_cluster("ds-t", "performance")) == 2
        assert store.fetch_cluster("ds-t", "ghost") == []
        store.drop_dataset("ds-t")
        assert store.dataset_size("ds-t") == 0

    def test_history_and_baselines(self, world):
        sim, _, _, store, _, _ = world
        records = [
            make_record(value=10.0, time=1.0),
            make_record(value=20.0, time=2.0),
            make_record(value=60.0, time=3.0),
        ]

        def proc():
            yield from store.store_records(records)

        sim.spawn(proc())
        sim.run(until=100)
        assert len(store.history("d1", "cpu_load")) == 3
        baseline = store.baseline("d1", "cpu_load")
        assert baseline["mean"] == pytest.approx(30.0)
        assert baseline["maximum"] == 60.0
        earlier = store.baseline("d1", "cpu_load", exclude_after=2.0)
        assert earlier["mean"] == pytest.approx(15.0)
        assert store.baseline("ghost", "cpu_load") is None

    def test_baselines_for_records_dedups_series(self, world):
        sim, _, _, store, _, _ = world

        def proc():
            yield from store.store_records([make_record(value=5.0)])

        sim.spawn(proc())
        sim.run(until=100)
        query_records = [make_record(value=1.0), make_record(value=2.0)]
        baselines = store.baselines_for_records(query_records)
        assert len(baselines) == 1

    def test_non_numeric_samples_not_indexed(self, world):
        sim, _, _, store, _, _ = world

        def proc():
            yield from store.store_records(
                [make_record(metric="proc_name", value="bash")])

        sim.spawn(proc())
        sim.run(until=100)
        assert store.history("d1", "proc_name") == []

    def test_dataset_id_generator_unique(self):
        sim = Simulator()
        assert [sim.next_id("ds"), sim.next_id("ds")] == ["ds-1", "ds-2"]
        # ids are per simulator: another run starts over
        assert Simulator().next_id("ds") == "ds-1"


class _Requester(Agent):
    """Scripted agent that queries the storage agent."""

    def __init__(self, name, storage_name, query,
                 performative=Performative.QUERY_REF):
        super().__init__(name)
        self.storage_name = storage_name
        self.query = query
        self.performative = performative
        self.reply = None

    def setup(self):
        agent = self

        from repro.agents.behaviours import OneShotBehaviour

        class Ask(OneShotBehaviour):
            def action(self):
                agent.send(ACLMessage(
                    agent.performative, agent.name, agent.storage_name,
                    content=agent.query, conversation_id="q-1",
                    size_units=0.5,
                ))
                agent.reply = yield from self.receive(
                    MessageTemplate(conversation_id="q-1"), timeout=60.0)

        self.add_behaviour(Ask())


class TestStorageAgent:
    def _deploy(self, world, query, preload=(), history=(),
                performative=Performative.QUERY_REF):
        sim, network, platform, store, storage_host, client_host = world
        storage_container = platform.create_container("sc", storage_host)
        client_container = platform.create_container("cc", client_host)
        storage_agent = StorageAgent("storage@stor", store)
        storage_container.deploy(storage_agent)

        def load():
            yield from store.store_records(list(history))
            yield from store.store_records(list(preload), dataset_id="ds-1",
                                           cluster_of=cluster_by_group)

        sim.spawn(load())
        sim.run(until=50)
        requester = _Requester("client-agent", "storage@stor", query,
                               performative)
        client_container.deploy(requester)
        sim.run(until=200)
        return requester, store

    def test_fetch_cluster_returns_records_and_baselines(self, world):
        requester, store = self._deploy(
            world,
            {"op": "fetch-cluster", "dataset": "ds-1",
             "cluster": "performance"},
            history=[make_record(value=42.0, time=1.0)],
            preload=[make_record(value=90.0, time=5.0)],
        )
        assert requester.reply is not None
        assert requester.reply.performative == Performative.INFORM
        records = requester.reply.content["records"]
        assert len(records) == 1
        # the baseline covers only history *before* the analyzed batch
        assert requester.reply.content["baselines"][0]["mean"] == 42.0
        assert store.fetches_served == 1

    def test_fetch_summary(self, world):
        requester, _ = self._deploy(
            world,
            {"op": "fetch-summary", "dataset": "ds-1"},
            preload=[make_record()],
        )
        content = requester.reply.content
        assert content["record_count"] == 1
        assert content["clusters"] == ["performance"]

    def test_unknown_op_not_understood(self, world):
        requester, _ = self._deploy(world, {"op": "divinate"})
        assert requester.reply.performative == Performative.NOT_UNDERSTOOD

    def test_unknown_request_op_not_understood(self, world):
        # a REQUEST is understood only as a replicated batch
        requester, store = self._deploy(
            world, {"op": "store-batch", "records": [make_record()],
                    "dataset": "ds-x"},
            performative=Performative.REQUEST)
        assert requester.reply.performative == Performative.NOT_UNDERSTOOD
        assert store.records_stored == 0
