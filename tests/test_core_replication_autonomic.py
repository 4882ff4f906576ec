"""Tests for storage replication and fetch failover (one of the paper's
future-work features)."""

import pytest

from repro.agents.acl import Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import CyclicBehaviour
from repro.core.processor import AnalyzerAgent
from repro.core.replication import ReplicationService
from repro.core.system import GridManagementSystem, GridTopologySpec, HostSpec
from repro.baselines.centralized import default_devices
from repro.rules.stdlib import standard_knowledge_base


def replicated_spec(seed=6, devices=2, **overrides):
    options = dict(
        devices=default_devices(devices),
        collector_hosts=[HostSpec("col1")],
        analysis_hosts=[HostSpec("inf1")],
        storage_host=HostSpec("stor"),
        interface_host=HostSpec("iface"),
        seed=seed,
        dataset_threshold=6,
        fetch_timeout=10.0,
        fetch_retries=1,
    )
    options.update(overrides)
    return GridTopologySpec(**options)


def replica_hosts(system):
    """One fresh replica host per shard, in shard order."""
    return [
        system.network.add_host(store.host.name + "-replica", "site1",
                                role="storage")
        for store in system.stores
    ]


def replicated_system(seed=6, **overrides):
    system = GridManagementSystem(replicated_spec(seed, **overrides))
    service = ReplicationService(system, replica_hosts(system), lag=0.2)
    return system, service


class TestReplication:
    def test_writes_mirror_to_replica(self):
        system, service = replicated_system()
        system.assign_goals(system.make_paper_goals(polls_per_type=2))
        assert system.run_until_records(6, timeout=2000)
        system.sim.run(until=system.sim.now + 10)
        assert service.records_replicated == 6
        assert service.replica_stores[0].records_stored == \
            system.store.records_stored == 6

    def test_replication_costs_are_charged(self):
        system, service = replicated_system()
        system.assign_goals(system.make_paper_goals(polls_per_type=2))
        assert system.run_until_records(6, timeout=2000)
        system.sim.run(until=system.sim.now + 10)
        replica_host = service.replica_stores[0].host
        # shipping charged both NICs; storing charged replica CPU+disk
        assert replica_host.nic.total_units > 0
        assert replica_host.disk.units_by_label["store"] > 0
        assert system.store.host.nic.units_by_label["acl"] > 0

    def test_replica_datasets_mirror_clusters(self):
        system, service = replicated_system()
        system.assign_goals(system.make_paper_goals(polls_per_type=2))
        assert system.run_until_records(6, timeout=2000)
        system.sim.run(until=system.sim.now + 10)
        primary_datasets = system.store.dataset_ids()
        for dataset_id in primary_datasets:
            assert service.replica_stores[0].clusters_of(dataset_id) == \
                system.store.clusters_of(dataset_id)

    def test_history_usable_on_replica(self):
        system, service = replicated_system()
        system.assign_goals(system.make_paper_goals(polls_per_type=2))
        assert system.run_until_records(6, timeout=2000)
        system.sim.run(until=system.sim.now + 10)
        assert service.replica_stores[0].baseline("dev1", "cpu_load") is not None

    def test_replication_leaves_no_unread_replies(self):
        # replicated batches are one-way: nothing lands back in a primary
        # storage agent's mailbox for later receives to scan past
        system, service = replicated_system(devices=4, shards=3)
        system.assign_goals(system.make_paper_goals(polls_per_type=4))
        assert system.run_until_records(12, timeout=2000)
        system.sim.run(until=system.sim.now + 10)
        assert service.batches_replicated >= len(system.stores)
        assert [agent.mailbox_size for agent in system.storage_agents] == \
            [0, 0, 0]


class TestFailover:
    def test_fetch_fails_over_when_primary_agent_dies(self):
        system, service = replicated_system()
        # kill the primary storage agent once collection is underway; the
        # classifier keeps storing locally (and replicating), but fetches
        # can only be answered by the replica.
        def kill_primary_agent():
            system.storage_container.remove(system.storage_agent)

        system.sim.schedule(1.0, kill_primary_agent)
        system.assign_goals(system.make_paper_goals(polls_per_type=2))
        completed = system.run_until_records(6, timeout=3000)
        assert completed
        assert sum(a.fetch_failovers for a in system.analyzers) > 0
        assert service.replica_stores[0].fetches_served > 0

    @staticmethod
    def _replica_nic_units(kill_primary_at):
        system, service = replicated_system(seed=29)
        # No analyzers, so no fetch ever reaches the replica: its NIC
        # carries replication traffic only.
        for analyzer in system.analyzers:
            analyzer.container.remove(analyzer)
        if kill_primary_at is not None:
            system.sim.schedule(kill_primary_at, lambda: (
                system.storage_container.remove(system.storage_agent)))
        system.assign_goals(system.make_paper_goals(polls_per_type=4))
        system.sim.run(until=200.0)
        assert service.records_replicated == 12
        return service.replica_stores[0].host.nic.total_units

    def test_replication_after_primary_removal_still_pays_the_nic(self):
        healthy = self._replica_nic_units(None)
        assert healthy == 18.0
        assert self._replica_nic_units(0.5) == healthy

    def test_no_failover_when_primary_healthy(self):
        system, service = replicated_system()
        system.assign_goals(system.make_paper_goals(polls_per_type=2))
        assert system.run_until_records(6, timeout=2000)
        assert sum(a.fetch_failovers for a in system.analyzers) == 0
        assert service.replica_stores[0].fetches_served == 0


class TestShardedFailover:
    """One replica per shard: losing any one shard's storage agent costs
    only a failover to that shard's own replica."""

    def _run(self, killed):
        system, service = replicated_system(
            devices=4, shards=3, enable_cross=True)
        if killed is not None:
            system.sim.schedule(1.0, lambda: system.storage_containers[
                killed].remove(system.storage_agents[killed]))
        system.assign_goals(system.make_paper_goals(polls_per_type=4))
        completed = system.run_until_records(12, timeout=3000)
        system.sim.run(until=system.sim.now + 10)
        return system, service, completed

    @pytest.mark.parametrize("killed", [0, 1, 2])
    def test_survives_loss_of_any_one_shard(self, killed):
        system, service, completed = self._run(killed)
        assert completed
        assert sum(r.records_analyzed for r in system.interface.reports) == 12
        assert sum(a.fetch_failovers for a in system.analyzers) > 0
        served = [store.fetches_served for store in service.replica_stores]
        assert [index for index, count in enumerate(served) if count] == \
            [killed]
        assert [store.records_stored for store in system.stores] == \
            [store.records_stored for store in service.replica_stores]

    def test_no_failover_without_a_kill(self):
        system, service, completed = self._run(None)
        assert completed
        assert sum(a.fetch_failovers for a in system.analyzers) == 0
        assert all(store.fetches_served == 0
                   for store in service.replica_stores)


class TestReplicationValidation:
    def test_one_replica_host_per_store(self):
        system = GridManagementSystem(replicated_spec(devices=4, shards=3))
        with pytest.raises(ValueError, match="2 replica hosts for 3 stores"):
            ReplicationService(system, replica_hosts(system)[:2])

    def test_replica_host_must_not_be_its_primary(self):
        system = GridManagementSystem(replicated_spec())
        with pytest.raises(ValueError, match="primary's host"):
            ReplicationService(system, [system.store.host])

    def test_replica_attempt_must_fit_the_job(self):
        # 10 s x 2 primary attempts fit the spec's own rule (< 30 s); the
        # replica's third attempt would reach the job timeout
        system = GridManagementSystem(replicated_spec(job_timeout=30.0))
        with pytest.raises(ValueError, match="job_timeout"):
            ReplicationService(system, replica_hosts(system))


class _StorageStub(Agent):
    """Logs every query; answers INFORM only when ``answer`` is set."""

    def __init__(self, name, log, answer):
        super().__init__(name)
        self.log = log
        self.answer = answer

    def setup(self):
        agent = self

        class Serve(CyclicBehaviour):
            def step(self):
                message = yield from self.receive()
                if message is None:
                    return
                agent.log.append((agent.name, message.conversation_id))
                if agent.answer:
                    agent.reply_to(message, Performative.INFORM,
                                   content={"served-by": agent.name})

        self.add_behaviour(Serve())


class TestFetchLadder:
    """The analyzer's one ladder: primary attempts, then the replica."""

    @pytest.fixture
    def ladder(self, sim, network, platform):
        containers = {
            name: platform.create_container(
                name + "-c", network.add_host(name, "site1"))
            for name in ("inf", "stor", "rep")
        }
        analyzer = AnalyzerAgent(
            "analyzer", root_name="nobody",
            knowledge_base=standard_knowledge_base(),
            register_on_start=False, fetch_timeout=5.0, fetch_retries=1,
        )
        analyzer.replicas["storage@stor"] = "storage@rep"
        containers["inf"].deploy(analyzer)
        log = []
        primary = _StorageStub("storage@stor", log, answer=False)
        containers["stor"].deploy(primary)
        containers["rep"].deploy(
            _StorageStub("storage@rep", log, answer=True))
        return sim, analyzer, containers["stor"], primary, log

    def _fetch(self, sim, analyzer):
        process = sim.spawn(analyzer._fetch(
            "storage@stor", {"op": "fetch-summary", "dataset": "ds"},
            size_units=0.5, conversation_tag="job"))
        sim.run(until=100.0)
        return process.result

    def test_silent_primary_then_replica(self, ladder):
        sim, analyzer, _, _, log = ladder
        assert self._fetch(sim, analyzer) == {"served-by": "storage@rep"}
        assert log == [
            ("storage@stor", "job-analyzer"),
            ("storage@stor", "job-analyzer"),
            ("storage@rep", "job-failover-analyzer"),
        ]
        assert (analyzer.fetch_attempts, analyzer.fetch_retries_used,
                analyzer.fetch_failovers, analyzer.fetch_failures) == \
            (3, 1, 1, 0)

    def test_failure_bounce_goes_straight_to_replica(self, ladder):
        # a removed primary bounces FAILURE at once: that is an answer,
        # so the ladder skips the primary retry
        sim, analyzer, container, primary, log = ladder
        container.remove(primary)
        assert self._fetch(sim, analyzer) == {"served-by": "storage@rep"}
        assert log == [("storage@rep", "job-failover-analyzer")]
        assert (analyzer.fetch_attempts, analyzer.fetch_retries_used,
                analyzer.fetch_failovers) == (2, 0, 1)

    def test_no_replica_keeps_the_primary_ladder(self, ladder):
        sim, analyzer, _, _, log = ladder
        analyzer.replicas.clear()
        assert self._fetch(sim, analyzer) is None
        assert log == [("storage@stor", "job-analyzer")] * 2
        assert (analyzer.fetch_attempts, analyzer.fetch_failovers,
                analyzer.fetch_failures) == (2, 0, 1)
