"""Unit tests for the Table 1 cost model and the common data representation."""

from types import SimpleNamespace

import pytest

from repro.core.costs import (
    CostModel,
    DEFAULT_COST_MODEL,
    REQUEST_TYPE_GROUPS,
    TaskCost,
    TaskKind,
)
from repro.core.processor import offer_cluster
from repro.core.records import (
    CollectionGoal,
    ManagementRecord,
    metric_from_mib_name,
)
from repro.snmp.engine import VarBind
from repro.snmp.mib import std


class TestCostModel:
    def test_verbatim_table1_values(self):
        model = CostModel()
        assert model.request_cost("A") == TaskCost(cpu=10, net=5)
        for rtype in ("A", "B", "C"):
            assert model.parse_cost(rtype) == TaskCost(cpu=15)
            assert model.infer_cost(rtype) == TaskCost(cpu=20, net=5)
        assert model.cross_cost() == TaskCost(cpu=40, net=8)

    def test_estimated_cells_flagged(self):
        model = CostModel()
        assert model.request_cost("B").estimated
        assert model.request_cost("C").estimated
        assert model.store_cost().estimated
        assert not model.request_cost("A").estimated
        assert not model.cross_cost().estimated

    def test_message_sizes_sum_to_network_costs(self):
        model = CostModel()
        assert model.poll_request_size + model.poll_response_size == \
            pytest.approx(model.request_cost("A").net)
        assert model.fetch_query_size + model.fetch_reply_size == \
            pytest.approx(model.infer_cost("A").net)
        assert model.cross_query_size + model.cross_reply_size == \
            pytest.approx(model.cross_cost().net)

    def test_parsing_shrinks_records(self):
        model = CostModel()
        assert model.parsed_record_size < model.raw_record_size
        assert model.parsed_record_size == pytest.approx(
            model.raw_record_size * CostModel.PARSE_SHRINK)

    def test_scaling_estimates_only(self):
        model = CostModel().with_estimates_scaled(2.0)
        assert model.store_cost().cpu == 20
        assert model.request_cost("B").cpu == 20
        assert model.request_cost("A").cpu == 10  # verbatim untouched
        assert model.infer_cost("A").cpu == 20

    def test_with_override(self):
        model = CostModel().with_override(
            TaskKind.INFER, "A", TaskCost(cpu=100, net=1))
        assert model.infer_cost("A").cpu == 100
        assert model.infer_cost("B").cpu == 20

    def test_unknown_lookup_raises(self):
        model = CostModel()
        with pytest.raises(KeyError):
            model.cost(TaskKind.REQUEST, "Z")
        with pytest.raises(KeyError):
            model.for_group("astral")

    def test_table_rows_shape(self):
        rows = CostModel().table_rows()
        names = [name for name, _ in rows]
        assert names[0] == "Request A"
        assert names[-1] == "Inference AxBxC"
        assert len(rows) == 11  # matches Table 1 row count

    def test_group_mapping_bijective(self):
        assert set(REQUEST_TYPE_GROUPS) == {"A", "B", "C"}
        assert len(set(REQUEST_TYPE_GROUPS.values())) == 3

    def test_task_cost_validation(self):
        with pytest.raises(ValueError):
            TaskCost(cpu=-1)
        with pytest.raises(ValueError):
            TaskCost(cpu=1).scaled(-1)

    def test_table_is_immutable_after_construction(self):
        # The per-kind caches are resolved once in __init__; a poked
        # table entry would silently diverge from them, so the table
        # rejects writes.  Runtime variants go through derive()/scaled().
        model = CostModel()
        with pytest.raises(TypeError):
            model._table[(TaskKind.REQUEST, "A")] = TaskCost(cpu=1)
        with pytest.raises((TypeError, AttributeError)):
            model._table.pop((TaskKind.REQUEST, "A"))
        # Derived models still build fine from the frozen table ...
        override = model.with_override(
            TaskKind.REQUEST, "A", TaskCost(cpu=99, net=5))
        assert override.request_cost("A").cpu == 99
        # ... and the source model's caches are unaffected.
        assert model.request_cost("A").cpu == 10
        assert model.request_costs["A"].cpu == 10


def _offered(records):
    """The (type, attrs) of every fact ``offer_cluster`` offers."""
    offered = []
    engine = SimpleNamespace(
        offer=lambda kind, attrs: offered.append((kind, attrs)))
    offer_cluster(engine, records, [])
    return offered


class TestRecords:
    def test_metric_normalization(self):
        assert metric_from_mib_name("ssCpuBusy") == ("cpu_load", None)
        assert metric_from_mib_name("ifInOctets.3") == ("if_in_octets", 3)
        assert metric_from_mib_name("unknownThing") == (None, None)

    def _raw_record(self):
        varbinds = [
            VarBind(std.CPU_LOAD, 95.0, "ssCpuBusy"),
            VarBind(std.MEM_AVAIL, 1000, "memAvailReal"),
            VarBind(std.PROC_TABLE.child(1), "procX", "hrSWRunName.1"),
            VarBind("9.9.9", None, "mystery"),
            VarBind(std.DISK_FREE, error="noSuchObject"),
        ]
        return ManagementRecord.from_varbinds(
            device="d1", site="s1", request_type="A", group="performance",
            varbinds=varbinds, collected_at=3.0, size_units=4.5,
        )

    def test_from_varbinds_skips_errors_and_unknowns(self):
        record = self._raw_record()
        # mystery + errored + the unread process name dropped
        assert record.values == [("cpu_load", None, 95.0),
                                 ("mem_available", None, 1000)]
        assert not record.parsed

    def test_parse_keeps_relevant_and_shrinks(self):
        record = self._raw_record()
        parsed = record.parse(1.5)
        assert parsed.parsed
        assert parsed.size_units == 1.5
        assert parsed.values == record.values
        assert parsed.values is not record.values
        # original untouched
        assert not record.parsed
        assert record.size_units == 4.5

    def test_to_facts_shape(self):
        record = self._raw_record().parse(1.5)
        offered = _offered([record])
        assert [kind for kind, _ in offered] == ["sample", "sample"]
        cpu_attrs = offered[0][1]
        assert list(cpu_attrs.items()) == [
            ("device", "d1"), ("site", "s1"), ("group", "performance"),
            ("metric", "cpu_load"), ("value", 95.0), ("time", 3.0)]

    def test_sample_instance_in_fact(self):
        record = ManagementRecord(
            "d", "s", "C", "traffic", [("if_in_octets", 2, 5)], 1.0,
            size_units=1.5, parsed=True)
        [(_, attrs)] = _offered([record])
        assert attrs["instance"] == 2
        assert list(attrs)[-1] == "instance"

    def test_relevant_metrics_exclude_noise(self):
        for mib_name in ("hrSWRunName.1", "ifNumber", "dskTotal"):
            assert metric_from_mib_name(mib_name) == (None, None)


class TestCollectionGoal:
    def test_goal_oids_follow_group(self):
        goal = CollectionGoal("d1", "C", count=2, interval=0.5)
        assert goal.group == "traffic"
        oids = goal.oids(interface_count=3)
        assert std.IF_IN_OCTETS.child(3) in oids

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CollectionGoal("d1", "Z")
        with pytest.raises(ValueError):
            CollectionGoal("d1", "A", interval=0)

    def test_default_cost_model_is_shared_instance(self):
        assert DEFAULT_COST_MODEL.request_cost("A").cpu == 10
