"""A cluster fetch names the baselines its rules read, and finds the same.

Four devices are polled twice, 60 s apart, into a real storage agent; the
second poll is one dataset of three clusters.  Between the polls one
device leaks memory, one creeps in load, one fills its disk and one
surges in traffic, so every level-2 trend rule has something to find.  An
analyzer runs each cluster job through its own fetch, once as built
(the query carries the engine's gate literals) and once with the query
stripped of them (storage then builds every baseline).  The rules fired
and the findings must be the same, and the baselines built per fetch are
pinned: the gate's saving is the difference.
"""

import pytest

import repro.core.processor as processor
from repro.core.processor import AnalyzerAgent, cluster_query
from repro.core.classifier import cluster_by_group
from repro.core.records import ManagementRecord
from repro.core.storage import ManagementDataStore, StorageAgent
from repro.rules.conditions import Pattern, Var
from repro.rules.engine import InferenceEngine, Rule
from repro.rules.facts import WorkingMemory
from repro.rules.stdlib import standard_knowledge_base

DEVICES = ("dev0", "dev1", "dev2", "dev3")
CLUSTERS = ("performance", "storage", "traffic")
#: (request type, group, [(metric, instance)]) of one poll of a device.
REQUESTS = (
    ("A", "performance", [("cpu_load", None), ("mem_available", None),
                          ("load_avg", None)]),
    ("B", "storage", [("disk_free", None), ("proc_count", None)]),
    ("C", "traffic", [(metric, instance)
                      for instance in (1, 2)
                      for metric in ("if_in_octets", "if_oper_status",
                                     "if_in_rate")]),
)
QUIET = {"cpu_load": 20.0, "mem_available": 600 * 1024, "load_avg": 1.0,
         "disk_free": 4 * 1024 * 1024, "proc_count": 60,
         "if_in_octets": 10**6, "if_oper_status": 1, "if_in_rate": 5000.0}
#: Second-poll readings that trip a trend rule: memory-trend, load-trend,
#: disk-projection and traffic-surge.
TRIPPED = {("dev1", "mem_available"): 150 * 1024,
           ("dev2", "load_avg"): 3.0,
           ("dev3", "disk_free"): 1024 * 1024,
           ("dev0", "if_in_rate"): 50000.0}


def _poll(time, tripped):
    records = []
    for device in DEVICES:
        for request_type, group, series in REQUESTS:
            values = [
                (metric, instance,
                 tripped.get((device, metric), QUIET[metric]))
                for metric, instance in series]
            records.append(ManagementRecord(
                device, "site1", request_type, group, values, time,
                size_units=1.0, parsed=True))
    return records


@pytest.fixture
def deployment(sim, network, platform):
    storage_host = network.add_host("stor", "site1", role="storage")
    store = ManagementDataStore(storage_host)
    platform.create_container("sc", storage_host).deploy(
        StorageAgent("storage@stor", store))
    analyzer = AnalyzerAgent(
        "analyzer", root_name="nobody",
        knowledge_base=standard_knowledge_base(), register_on_start=False)
    platform.create_container(
        "ic", network.add_host("inf", "site1", role="analysis")).deploy(
            analyzer)

    def load():
        yield from store.store_records(_poll(10.0, {}), dataset_id="ds-1",
                                       cluster_of=cluster_by_group)
        yield from store.store_records(_poll(70.0, TRIPPED),
                                       dataset_id="ds-2",
                                       cluster_of=cluster_by_group)

    sim.spawn(load())
    sim.run(until=100.0)
    return sim, store, analyzer


def _built_per_fetch(monkeypatch):
    built = []
    original = ManagementDataStore.baselines_for_records

    def counted(self, records, exclude_after=None, admit=None):
        baselines = original(self, records, exclude_after=exclude_after,
                             admit=admit)
        built.append(len(baselines))
        return baselines

    monkeypatch.setattr(ManagementDataStore, "baselines_for_records",
                        counted)
    return built


def _run_jobs(sim, analyzer, store):
    """Each cluster's (findings, records analyzed), in cluster order."""
    results = []
    for cluster in CLUSTERS:
        content = {"job_id": "job-" + cluster, "storage_host": "stor",
                   "dataset": "ds-2", "cluster": cluster,
                   "record_count": len(store.fetch_cluster("ds-2", cluster))}
        process = sim.spawn(analyzer._run_cluster_job(content))
        sim.run(until=sim.now + 200.0)
        findings, analyzed = process.result
        results.append((
            [(finding.kind, finding.device, finding.severity,
              sorted(finding.detail.items())) for finding in findings],
            analyzed))
    return results


def _ungated(content, engine):
    query = cluster_query(content, engine)
    query.pop("admit_baselines", None)
    return query


class TestFetchByGate:
    def test_gated_fetch_finds_what_the_full_fetch_finds(
            self, deployment, monkeypatch):
        sim, store, analyzer = deployment
        built = _built_per_fetch(monkeypatch)
        gated = _run_jobs(sim, analyzer, store)
        gated_fired = analyzer.rules_fired
        gated_built = list(built)
        monkeypatch.setattr(processor, "cluster_query", _ungated)
        built.clear()
        full = _run_jobs(sim, analyzer, store)
        assert full == gated
        assert analyzer.rules_fired == 2 * gated_fired
        kinds = sorted(kind for findings, _ in gated
                       for kind, *_ in findings)
        assert kinds == ["disk-filling", "load-trend",
                         "memory-leak-suspect", "traffic-surge"]
        # per fetch (performance, storage, traffic): the gate reads
        # mem_available + load_avg, disk_free and if_in_rate per device
        # (and interface); the full fetch builds every series of the cluster
        assert gated_built == [8, 4, 8]
        assert built == [12, 8, 24]

    def test_a_rule_with_no_discriminator_gets_every_baseline(
            self, deployment, monkeypatch):
        sim, store, analyzer = deployment
        analyzer.knowledge_base.learn(Rule(
            "any-baseline",
            [Pattern("baseline", device=Var("device"), mean=Var("mean"))],
            lambda context: None, group="performance", level=2))
        built = _built_per_fetch(monkeypatch)
        _run_jobs(sim, analyzer, store)
        assert built == [12, 4, 8]

    def test_a_rule_learned_mid_fetch_applies_from_the_next_job(
            self, deployment, monkeypatch):
        # the engine fixes the gate before the query is sent, so a rule
        # learned while the fetch is in flight neither widens that fetch
        # nor fires in that job; the next job has it
        sim, store, analyzer = deployment
        built = _built_per_fetch(monkeypatch)
        content = {"job_id": "job-first", "storage_host": "stor",
                   "dataset": "ds-2", "cluster": "performance",
                   "record_count": len(
                       store.fetch_cluster("ds-2", "performance"))}
        first = sim.spawn(analyzer._run_cluster_job(content))
        sim.run(until=sim.now + 1e-3)
        assert not first.done and built == []
        fired = []
        analyzer.knowledge_base.learn(Rule(
            "cpu-baseline",
            [Pattern("baseline", metric="cpu_load", device=Var("device"))],
            lambda context: fired.append(context["device"]),
            group="performance", level=2))
        sim.run(until=sim.now + 200.0)
        assert first.done and built == [8] and fired == []
        second = sim.spawn(analyzer._run_cluster_job(
            dict(content, job_id="job-second")))
        sim.run(until=sim.now + 200.0)
        assert second.done and built == [8, 12]
        assert sorted(fired) == list(DEVICES)
        assert [(finding.kind, finding.device)
                for finding in second.result[0]] == \
            [(finding.kind, finding.device) for finding in first.result[0]]

    def test_a_query_without_the_key_returns_every_baseline(
            self, deployment):
        sim, store, analyzer = deployment
        replies = {}
        for name, query in (
                ("bare", {"op": "fetch-cluster", "dataset": "ds-2",
                          "cluster": "traffic"}),
                ("gated", {"op": "fetch-cluster", "dataset": "ds-2",
                           "cluster": "traffic",
                           "admit_baselines": {
                               "metric": frozenset({"if_in_rate"})}})):
            process = sim.spawn(analyzer._fetch(
                "storage@stor", query, size_units=1.0,
                conversation_tag="q-" + name))
            sim.run(until=sim.now + 100.0)
            replies[name] = process.result["baselines"]
        assert len(replies["bare"]) == 24
        assert replies["gated"] == [
            baseline for baseline in replies["bare"]
            if baseline["metric"] == "if_in_rate"]


def _engine(*rules):
    selected = standard_knowledge_base().rules(groups=("performance",),
                                               max_level=2)
    return InferenceEngine(WorkingMemory(), list(selected) + list(rules))


CONTENT = {"dataset": "ds-2", "cluster": "performance"}


class TestClusterQuery:
    def test_the_query_carries_the_gate_literals(self):
        query = cluster_query(CONTENT, _engine())
        assert query == {"op": "fetch-cluster", "dataset": "ds-2",
                         "cluster": "performance",
                         "admit_baselines": {"metric": frozenset(
                             {"mem_available", "load_avg"})}}

    def test_no_baseline_pattern_asks_for_none(self):
        kb = standard_knowledge_base()
        engine = InferenceEngine(
            WorkingMemory(), kb.rules(groups=("performance",), max_level=1))
        assert cluster_query(CONTENT, engine)["admit_baselines"] == {}

    def test_a_pattern_with_no_discriminator_gets_every_baseline(self):
        wide = Rule("any-baseline", [
            Pattern("baseline", device=Var("device"), mean=Var("mean"))],
            lambda context: None)
        assert "admit_baselines" not in cluster_query(CONTENT, _engine(wide))

    def test_a_literal_off_the_series_key_gets_every_baseline(self):
        flat = Rule("flat-baseline", [Pattern("baseline", mean=0.0)],
                    lambda context: None)
        assert "admit_baselines" not in cluster_query(CONTENT, _engine(flat))

    def test_admits_reads_the_gate_without_sharing_it(self):
        engine = _engine()
        admit = engine.admits("baseline")
        assert admit == {"metric": frozenset({"mem_available", "load_avg"})}
        assert engine.admits("incident") == {}
        wide = Rule("any-sample", [Pattern("sample", value=Var("value"))],
                    lambda context: None)
        engine.add_rule(wide)
        assert engine.admits("sample") is None
