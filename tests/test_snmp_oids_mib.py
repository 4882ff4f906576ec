"""Unit tests for OID algebra and MIB trees."""

import pytest

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
