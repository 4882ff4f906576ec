"""Work-count gate for cluster analysis.

One fixed traffic-and-performance cluster, built from
``ManagementRecord``s with no simulator, runs through the analyzer's own
memory builder (``offer_cluster``) and the standard knowledge base.  The
test pins two exact counts: the facts asserted and the ``Pattern.match``
calls.  Building facts that no selected pattern can match (raw octet
counters, storage metrics) or scanning every fact of a type per pattern
moves them, and so does any other change to how much the analysis reads;
re-pin only for a deliberate change, and say why.
"""

import pytest

from repro.core.processor import offer_cluster
from repro.core.records import ManagementRecord
from repro.rules.conditions import Pattern
from repro.rules.facts import WorkingMemory
from repro.rules.stdlib import standard_knowledge_base

DEVICES = 6
#: The performance and traffic samples of one device, per instance.
PERFORMANCE = ("cpu_load", "mem_available", "load_avg", "disk_free",
               "proc_count")
TRAFFIC = ("if_in_octets", "if_out_octets", "if_oper_status",
           "if_in_rate", "if_out_rate")


def _value(device, metric, instance):
    """Quiet readings, plus one anomaly per rule family on some device."""
    if metric == "cpu_load":
        return 97.0 if device in (0, 3) else 20.0 + device
    if metric == "mem_available":
        return 50 * 1024 if device == 1 else 900 * 1024
    if metric == "load_avg":
        return 1.0
    if metric == "if_oper_status":
        return 2 if (device, instance) == (2, 2) else 1
    if metric == "if_in_rate":
        return 0.2 if (device, instance) == (4, 1) else 5000.0 + device
    return 10000.0 * (device + 1) + (instance or 0)


def _cluster():
    records, baselines = [], []
    for device in range(DEVICES):
        name = "dev%d" % device
        for request_type, group, metrics, instances in (
                ("A", "performance", PERFORMANCE, (None,)),
                ("C", "traffic", TRAFFIC, (1, 2))):
            values = [
                (metric, instance, _value(device, metric, instance))
                for metric in metrics for instance in instances
            ]
            records.append(ManagementRecord(
                name, "site%d" % (device % 2), request_type, group, values,
                collected_at=60.0, size_units=1.0, parsed=True))
            for metric, instance, value in values:
                mean = value / (4.0 if device == 5 else 1.0)
                baselines.append({
                    "device": name, "metric": metric,
                    "instance": instance, "mean": mean,
                    "maximum": mean * 1.5, "count": 10,
                })
    return records, baselines


@pytest.fixture
def match_calls(monkeypatch):
    calls = [0]
    match = Pattern.match

    def counted(self, fact, bindings):
        calls[0] += 1
        return match(self, fact, bindings)

    monkeypatch.setattr(Pattern, "match", counted)
    return calls


def test_cluster_analysis_work_is_pinned(match_calls):
    records, baselines = _cluster()
    offered = sum(len(record.values) for record in records) + len(baselines)
    memory = WorkingMemory()
    engine = standard_knowledge_base().engine_for(
        memory, groups=("performance", "traffic"), max_level=2)
    offer_cluster(engine, records, baselines)
    asserted = memory.assertions
    engine.run()
    problems = sorted((fact["kind"], fact["device"])
                      for fact in memory.facts("problem"))
    assert problems == [
        ("high-cpu", "dev0"), ("high-cpu", "dev3"),
        ("interface-down", "dev2"), ("load-trend", "dev5"),
        ("low-memory", "dev1"), ("silent-interface", "dev4"),
        ("traffic-surge", "dev5"),
    ]
    assert offered == 180
    assert engine.cycles_run == 9 and len(engine.fired) == 29
    assert (asserted, match_calls[0]) == (66, 1143)
