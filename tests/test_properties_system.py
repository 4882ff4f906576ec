"""Property-based tests on system-level invariants (hypothesis)."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.ontology import ANALYSIS_JOB, DATA_READY
from repro.core.processor import offer_cluster
from repro.core.records import ManagementRecord, metric_from_mib_name
from repro.network.addressing import Address
from repro.network.protocols import HTTP, SMTP
from repro.network.topology import Network
from repro.network.transport import Message, Transport
from repro.rules.conditions import Pattern, Var
from repro.rules.facts import Fact
from repro.simkernel.simulator import Simulator
from repro.snmp.engine import VarBind


class TestTransportConservation:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_nic_charges_match_carried_units(self, sizes):
        """Each delivered unit is charged exactly once per endpoint."""
        sim = Simulator(seed=1)
        network = Network(sim)
        sender = network.add_host("s", "site1", net_capacity=1000.0)
        receiver = network.add_host("r", "site1", net_capacity=1000.0)
        receiver.bind("in", lambda message: None)
        transport = Transport(network)
        for size in sizes:
            transport.send(Message(
                Address("s", "x"), Address("r", "in"), None, size))
        sim.run(until=10000)
        total = sum(sizes)
        assert transport.messages_delivered == len(sizes)
        assert abs(sender.nic.total_units - total) < 1e-6
        assert abs(receiver.nic.total_units - total) < 1e-6
        assert abs(transport.units_carried - total) < 1e-6


class TestProtocolMonotonicity:
    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_smtp_never_cheaper_than_http(self, payload):
        assert SMTP.size(payload) >= HTTP.size(payload)

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
           st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_size_monotone_in_payload(self, a, b):
        low, high = sorted((a, b))
        assert HTTP.size(low) <= HTTP.size(high)


class TestRecordProperties:
    values = st.one_of(st.integers(-1000, 10**9),
                       st.floats(min_value=0, max_value=1e9,
                                 allow_nan=False))

    @given(st.lists(st.tuples(
        st.sampled_from(["ssCpuBusy", "memAvailReal", "hrSWRunName.1",
                         "ifInOctets.2", "dskTotal"]),
        values,
    ), max_size=10))
    def test_parse_is_idempotent_and_shrinking(self, named_values):
        record = ManagementRecord.from_varbinds(
            "d", "s", "A", "performance",
            [VarBind("1.3.6", value, mib_name)
             for mib_name, value in named_values], 1.0, size_units=4.5)
        assert [metric for metric, _, _ in record.values] == [
            metric_from_mib_name(mib_name)[0]
            for mib_name, _ in named_values
            if mib_name in ("ssCpuBusy", "memAvailReal", "ifInOctets.2")]
        parsed_once = record.parse(1.5)
        parsed_twice = parsed_once.parse(1.5)
        assert parsed_twice.values == parsed_once.values == record.values
        assert parsed_once.size_units <= record.size_units

    @given(st.lists(st.tuples(
        st.sampled_from(["cpu_load", "disk_free"]), values), max_size=8))
    def test_to_facts_preserves_every_sample(self, metric_values):
        record = ManagementRecord(
            "d", "s", "A", "performance",
            [(metric, None, value) for metric, value in metric_values], 2.0,
            size_units=4.5)
        facts = []
        offer_cluster(SimpleNamespace(
            offer=lambda kind, attrs: facts.append(Fact.owning(kind, attrs))),
            [record], [])
        assert len(facts) == len(metric_values)
        assert all(fact["device"] == "d" for fact in facts)
        assert [(fact["metric"], fact["value"]) for fact in facts] == \
            metric_values


class TestOntologyProperties:
    @given(
        st.text(min_size=1, max_size=10),
        st.integers(min_value=0, max_value=10**6),
        st.lists(st.text(max_size=5), max_size=5),
    )
    def test_data_ready_round_trip(self, dataset, count, clusters):
        content = DATA_READY.make(
            dataset=dataset, record_count=count, clusters=clusters,
            storage_host="h",
        )
        # validation of its own output must succeed
        assert DATA_READY.validate(dict(content)) == content

    @given(st.integers(min_value=1, max_value=3))
    def test_analysis_job_levels(self, level):
        content = ANALYSIS_JOB.make(
            job_id="j", dataset="d", cluster="c", record_count=1,
            level=level, storage_host="h",
        )
        assert content["level"] == level


class TestPatternJoinProperties:
    @given(st.lists(st.sampled_from(["d1", "d2", "d3"]), min_size=0,
                    max_size=8))
    def test_join_count_equals_equal_device_pairs(self, devices):
        """A two-pattern join over (a, b) yields exactly the matching
        cross-product."""
        from repro.rules.engine import InferenceEngine, Rule
        from repro.rules.facts import WorkingMemory

        memory = WorkingMemory()
        a_devices = devices[: len(devices) // 2]
        b_devices = devices[len(devices) // 2:]
        for index, device in enumerate(a_devices):
            memory.assert_new("a", device=device, index=index)
        for index, device in enumerate(b_devices):
            memory.assert_new("b", device=device, index=index)
        hits = []
        rule = Rule("join", [
            Pattern("a", device=Var("d")),
            Pattern("b", device=Var("d")),
        ], lambda context: hits.append(context["d"]))
        InferenceEngine(memory, [rule]).run()
        expected = sum(
            1 for da in a_devices for db in b_devices if da == db
        )
        assert len(hits) == expected


class TestFactKeyProperties:
    attr_values = st.one_of(
        st.integers(-100, 100), st.text(max_size=6),
        st.lists(st.integers(0, 5), max_size=3),
    )

    @given(st.dictionaries(st.sampled_from("abcd"), attr_values, max_size=4))
    def test_content_key_equality_matches_same_content(self, attrs):
        first = Fact("t", **attrs)
        second = Fact("t", **attrs)
        assert first.content_key() == second.content_key()
        assert first.same_content(second)

    @given(
        st.dictionaries(st.sampled_from("abcd"), attr_values, max_size=4),
        st.dictionaries(st.sampled_from("abcd"), attr_values, max_size=4),
    )
    def test_key_collision_implies_same_content(self, attrs_a, attrs_b):
        first = Fact("t", **attrs_a)
        second = Fact("t", **attrs_b)
        if first.content_key() == second.content_key():
            assert first.same_content(second)
