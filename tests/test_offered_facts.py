"""The facts a poll becomes, byte for byte, from varbind to rule engine.

One device of each profile is polled for every request type at t=42 and
again at t=102, through the collector's own steps: a GET, the raw
record (``ManagementRecord.from_varbinds``), the parse task, the
classifier's rate derivation, then ``offer_cluster``.
``benchmarks/golden/offered_facts.jsonl`` holds every fact offered, one
JSON line ``[profile, poll time, fact type, [[attr, value], ...]]`` with
the attributes in the order the fact dict holds them.  It must stay
byte-identical: how a record stores its values is not allowed to move a
fact, its key order, or its int/float types.  Regenerate after a
deliberate behaviour change (and explain every changed line) with::

    PYTHONPATH=src python tests/test_offered_facts.py
"""

import json
import os
from types import SimpleNamespace

from repro.core.classifier import ClassifierAgent
from repro.core.processor import offer_cluster
from repro.core.records import CollectionGoal, ManagementRecord
from repro.network.topology import Network
from repro.network.transport import Transport
from repro.simkernel.simulator import Simulator
from repro.snmp.device import PROFILES, ManagedDevice
from repro.snmp.engine import PduType, SnmpEngine, SnmpRequest, VarBind

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "golden",
    "offered_facts.jsonl")

POLL_TIMES = (42.0, 102.0)
#: The metrics a poll requests that no analysis reads.
UNREAD_MIB_NAMES = ("hrSWRunName", "ifNumber", "dskTotal")


def _polls():
    """Per profile and poll time: each request type's (varbinds, goal)."""
    sim = Simulator(seed=11)
    network = Network(sim)
    transport = Transport(network)
    engines = {}
    for name in sorted(PROFILES):
        device = ManagedDevice(
            sim, network.add_host("%s-1" % name, "site1", role="device"),
            profile=name)
        device.inject_fault("memory_leak")
        device.inject_fault("interface_down", interface=0)
        engines[name] = (device, SnmpEngine(device, transport))
    for when in POLL_TIMES:
        sim.run(until=when)
        for name, (device, engine) in engines.items():
            profile = device.profile
            polls = []
            for request_type in ("A", "B", "C"):
                goal = CollectionGoal(device.name, request_type)
                oids = goal.oids(interface_count=profile.interface_count,
                                 process_slots=profile.process_slots)
                varbinds = engine._evaluate(SnmpRequest(
                    PduType.GET, [VarBind(oid) for oid in oids],
                    request_id=1, reply_to=None))
                polls.append((varbinds, goal))
            yield name, when, polls


def _raw_record(goal, varbinds, when):
    return ManagementRecord.from_varbinds(
        device=goal.device_name, site="site1",
        request_type=goal.request_type, group=goal.group,
        varbinds=varbinds, collected_at=when, size_units=4.5)


def offered_facts():
    """The golden rows: every fact each poll offers, in offer order."""
    classifier = ClassifierAgent("classifier", store=None,
                                 processor_name="nobody")
    rows = []
    for name, when, polls in _polls():
        records = []
        for varbinds, goal in polls:
            record = _raw_record(goal, varbinds, when).parse(1.5)
            classifier._derive_rates(record)
            records.append(record)
        engine = SimpleNamespace(offer=lambda kind, attrs: rows.append(
            [name, when, kind, [[attr, value]
                                for attr, value in attrs.items()]]))
        offer_cluster(engine, records, [])
    return rows


def _golden_text(rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


def test_offered_facts_match_the_golden():
    with open(GOLDEN_PATH) as golden:
        expected = golden.read()
    assert _golden_text(offered_facts()) == expected


def test_a_raw_record_holds_only_the_analysis_metrics():
    mib_names = set()
    for _, when, polls in _polls():
        for varbinds, goal in polls:
            mib_names.update(varbind.name.partition(".")[0]
                             for varbind in varbinds)
            metrics = {metric for metric, _, _ in
                       _raw_record(goal, varbinds, when).values}
            assert not metrics & {"proc_name", "if_count", "disk_total"}
    # the poll still requests (and pays for) every unread object
    assert mib_names >= set(UNREAD_MIB_NAMES)


def test_parse_and_rates_leave_the_raw_record_raw():
    # a redelivered raw envelope must arrive as it left
    classifier = ClassifierAgent("classifier", store=None,
                                 processor_name="nobody")
    for _, when, polls in _polls():
        for varbinds, goal in polls:
            raw = _raw_record(goal, varbinds, when)
            before = list(raw.values)
            parsed = raw.parse(1.5)
            classifier._derive_rates(parsed)
            assert not raw.parsed and raw.size_units == 4.5
            assert raw.values == before
            assert parsed.values[:len(before)] == before


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as golden:
        golden.write(_golden_text(offered_facts()))
    print("wrote", os.path.normpath(GOLDEN_PATH))
