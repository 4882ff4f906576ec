"""Unit tests for OID algebra and MIB trees."""

import pytest

from repro.network.topology import Network
from repro.simkernel.simulator import Simulator
from repro.snmp.device import ManagedDevice, PROFILES
from repro.snmp.mib import MibObject, MibTree, StandardMib, std
from repro.snmp.oids import OID


class TestOID:
    def test_parse_from_string(self):
        oid = OID("1.3.6.1")
        assert oid.parts == (1, 3, 6, 1)
        assert str(oid) == "1.3.6.1"

    def test_construct_from_iterable_and_oid(self):
        assert OID((1, 2, 3)) == OID("1.2.3")
        assert OID(OID("1.2")) == OID("1.2")

    def test_malformed_strings_rejected(self):
        for bad in ("", "1..2", "1.a.2"):
            with pytest.raises(ValueError):
                OID(bad)

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            OID((1, -2))

    def test_ordering_is_lexicographic(self):
        assert OID("1.2") < OID("1.2.0")
        assert OID("1.2.9") < OID("1.10")
        assert OID("2") > OID("1.9.9.9")

    def test_ordering_against_strings_and_tuples(self):
        assert OID("1.2") < "1.10" and OID("1.2") <= (1, 2)
        assert OID("2") > (1, 9) and OID("2") >= "2"
        with pytest.raises(ValueError):
            OID("1.2") < "1..2"

    def test_child_and_parent(self):
        oid = OID("1.3").child(6, 1)
        assert oid == OID("1.3.6.1")
        assert oid.parent == OID("1.3.6")
        with pytest.raises(ValueError):
            OID("1").parent

    def test_prefix_relationship(self):
        assert OID("1.3.6").is_prefix_of("1.3.6.1.2")
        assert OID("1.3.6").is_prefix_of("1.3.6")
        assert not OID("1.3.6").is_prefix_of("1.3.7")

    def test_hashable_and_immutable(self):
        oid = OID("1.2.3")
        assert hash(oid) == hash(OID("1.2.3"))
        with pytest.raises(AttributeError):
            oid.parts = (9,)

    def test_indexing(self):
        oid = OID("1.2.3")
        assert oid[0] == 1
        assert len(oid) == 3


class TestMibTree:
    @pytest.fixture
    def tree(self):
        tree = MibTree()
        tree.register_scalar("1.1", "a", 10)
        tree.register_scalar("1.2", "b", lambda: 20)
        tree.register_scalar("1.3.1", "c1", 1)
        tree.register_scalar("1.3.2", "c2", 2)
        tree.register_scalar("2.1", "d", 99, writable=True)
        return tree

    def test_get_exact(self, tree):
        assert tree.get("1.1").read() == 10
        assert tree.get("9.9") is None

    def test_callable_values_evaluated_at_read(self, tree):
        assert tree.get("1.2").read() == 20

    def test_get_next_walks_in_order(self, tree):
        assert tree.get_next("1.1").oid == OID("1.2")
        assert tree.get_next("1.2").oid == OID("1.3.1")
        assert tree.get_next("2.1") is None
        # get_next from a non-existent OID still finds the successor
        assert tree.get_next("1.2.5").oid == OID("1.3.1")

    def test_walk_subtree(self, tree):
        names = [obj.name for obj in tree.walk("1.3")]
        assert names == ["c1", "c2"]
        assert tree.walk("3") == []

    def test_duplicate_registration_rejected(self, tree):
        with pytest.raises(ValueError):
            tree.register_scalar("1.1", "dup", 0)

    def test_write_semantics(self, tree):
        tree.get("2.1").write(100)
        assert tree.get("2.1").read() == 100
        with pytest.raises(PermissionError):
            tree.get("1.1").write(5)
        with pytest.raises(PermissionError):
            MibObject("5.5", "calc", lambda: 1, writable=True).write(2)

    def test_contains_and_len(self, tree):
        assert "1.1" in tree
        assert OID("1.1") in tree
        assert "9.9" not in tree
        assert len(tree) == 5

    def test_registering_after_a_read_keeps_the_oid_order(self, tree):
        assert [obj.name for obj in tree.walk("1.3")] == ["c1", "c2"]
        tree.register_scalar("1.3.0", "c0", 0)
        tree.register_scalar("1.10", "j", 0)
        tree.register_scalar("1.2.1", "b1", 0)
        assert tree.get_next("1.2").name == "b1"
        assert tree.get_next("1.3").name == "c0"
        assert [obj.name for obj in tree.walk("1.3")] == ["c0", "c1", "c2"]
        assert tree.oids() == [OID(text) for text in (
            "1.1", "1.2", "1.2.1", "1.3.0", "1.3.1", "1.3.2", "1.10", "2.1")]


class TestStandardMib:
    def test_group_oids_performance(self):
        oids = std.group_oids(std.GROUP_PERFORMANCE)
        assert std.CPU_LOAD in oids
        assert std.MEM_AVAIL in oids

    def test_group_oids_storage_includes_process_table(self):
        oids = std.group_oids(std.GROUP_STORAGE, process_slots=2)
        assert std.DISK_FREE in oids
        assert std.PROC_TABLE.child(1) in oids
        assert std.PROC_TABLE.child(2) in oids
        assert std.PROC_TABLE.child(3) not in oids

    def test_group_oids_traffic_scales_with_interfaces(self):
        few = std.group_oids(std.GROUP_TRAFFIC, interface_count=1)
        many = std.group_oids(std.GROUP_TRAFFIC, interface_count=4)
        assert len(many) > len(few)
        assert std.IF_IN_OCTETS.child(4) in many

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            StandardMib.group_oids("telepathy")


def _fresh(column, index):
    """``column.child(index)`` from a newly parsed column OID."""
    return OID(str(column)).child(index)


class TestSharedInstanceOids:
    def test_group_oids_equal_fresh_construction(self):
        for count in range(1, 49):
            traffic = [std.IF_COUNT]
            for index in range(1, count + 1):
                traffic += [_fresh(std.IF_IN_OCTETS, index),
                            _fresh(std.IF_OUT_OCTETS, index),
                            _fresh(std.IF_OPER_STATUS, index)]
            storage = [std.DISK_FREE, std.DISK_TOTAL, std.PROC_COUNT] + [
                _fresh(std.PROC_TABLE, slot) for slot in range(1, count + 1)]
            assert std.group_oids(
                std.GROUP_TRAFFIC, interface_count=count) == traffic
            assert std.group_oids(
                std.GROUP_STORAGE, process_slots=count) == storage
        # a fresh list each call: callers may extend it
        assert std.group_oids(std.GROUP_TRAFFIC) is not \
            std.group_oids(std.GROUP_TRAFFIC)

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_device_mib_equals_fresh_construction(self, name):
        profile = PROFILES[name]
        expected = [
            std.SYS_DESCR, std.SYS_UPTIME, std.SYS_NAME, std.CPU_LOAD,
            std.MEM_AVAIL, std.LOAD_AVG_1MIN, std.DISK_FREE, std.DISK_TOTAL,
            std.PROC_COUNT, std.IF_COUNT,
        ]
        for index in range(1, profile.interface_count + 1):
            expected += [_fresh(std.IF_IN_OCTETS, index),
                         _fresh(std.IF_OUT_OCTETS, index),
                         _fresh(std.IF_OPER_STATUS, index)]
        expected += [_fresh(std.PROC_TABLE, slot)
                     for slot in range(1, profile.process_slots + 1)]
        sim = Simulator(seed=3)
        network = Network(sim)
        first, second = (
            ManagedDevice(sim, network.add_host(host, "site1", role="device"),
                          profile=name)
            for host in ("dev1", "dev2"))
        assert first.mib.oids() == sorted(expected)
        # every device's MIB holds the same OID objects
        assert all(mine is theirs for mine, theirs in zip(
            first.mib.oids(), second.mib.oids()))
        assert all(entry.oid is std.IF_IN_OCTETS_AT[index] for index, entry
                   in enumerate(first.mib.walk(std.IF_IN_OCTETS), start=1))
