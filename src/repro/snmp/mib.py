"""MIB trees and the standard managed-object set.

A :class:`MibTree` is an ordered registry of :class:`MibObject` entries.
Objects can be static values or callables evaluated at read time, which is
how devices expose *live* metrics (the callable reads the device's current
state).  GETNEXT walks the tree in OID order, exactly like real SNMP.

:class:`StandardMib` collects the OIDs the paper's workload polls -- host
performance (CPU, memory), storage (disk, processes) and interface traffic
-- loosely modelled on MIB-2 / HOST-RESOURCES / UCD-SNMP subtrees.
"""

import bisect

from repro.snmp.oids import OID, as_oid


class MibObject:
    """One managed object: an OID bound to a value or a value provider.

    Args:
        oid: the object's OID.
        name: symbolic name ("sysUpTime").
        value: static value, or a zero-argument callable producing it.
        writable: whether SET is allowed.
        units: free-form unit tag for reports ("percent", "kB", "octets").
    """

    def __init__(self, oid, name, value, writable=False, units=""):
        self.oid = as_oid(oid)
        self.name = name
        self._value = value
        self.writable = writable
        self.units = units

    def read(self):
        if callable(self._value):
            return self._value()
        return self._value

    def write(self, value):
        if not self.writable:
            raise PermissionError("object %s (%s) is read-only" % (self.oid, self.name))
        if callable(self._value):
            raise PermissionError("object %s is computed; cannot SET" % self.oid)
        self._value = value

    def __repr__(self):
        return "MibObject(%s=%s)" % (self.name, self.oid)


class MibTree:
    """An OID-ordered collection of :class:`MibObject`."""

    def __init__(self):
        self._objects = {}
        self._order = []

    def register(self, mib_object):
        """Add an object; OIDs must be unique."""
        oid = mib_object.oid
        if oid in self._objects:
            raise ValueError("OID %s already registered" % oid)
        self._objects[oid] = mib_object
        bisect.insort(self._order, oid)
        return mib_object

    def register_scalar(self, oid, name, value, writable=False, units=""):
        return self.register(MibObject(oid, name, value, writable, units))

    def __contains__(self, oid):
        return as_oid(oid) in self._objects

    def __len__(self):
        return len(self._objects)

    def get(self, oid):
        """The object at exactly ``oid``, or None."""
        return self._objects.get(as_oid(oid))

    def get_next(self, oid):
        """The first object with OID strictly greater than ``oid``, or None."""
        index = bisect.bisect_right(self._order, as_oid(oid))
        if index >= len(self._order):
            return None
        return self._objects[self._order[index]]

    def walk(self, prefix):
        """All objects within the subtree rooted at ``prefix``, in order."""
        prefix = as_oid(prefix)
        index = bisect.bisect_left(self._order, prefix)
        results = []
        while index < len(self._order):
            oid = self._order[index]
            if not prefix.is_prefix_of(oid):
                break
            results.append(self._objects[oid])
            index += 1
        return results

    def oids(self):
        return list(self._order)


class StandardMib:
    """Well-known OIDs used by the reproduction's workloads.

    Grouped the way the paper's Figure 3 splits analysis work: processing
    load (X), disk space (W-disk), interface traffic (W-traffic), plus
    bookkeeping scalars.
    """

    # MIB-2 system group
    SYS_DESCR = OID("1.3.6.1.2.1.1.1.0")
    SYS_UPTIME = OID("1.3.6.1.2.1.1.3.0")
    SYS_NAME = OID("1.3.6.1.2.1.1.5.0")

    # Performance (UCD-SNMP-ish + HOST-RESOURCES-ish)
    CPU_LOAD = OID("1.3.6.1.4.1.2021.11.9.0")        # percent busy
    MEM_AVAIL = OID("1.3.6.1.4.1.2021.4.6.0")        # kB available
    LOAD_AVG_1MIN = OID("1.3.6.1.4.1.2021.10.1.3.1")

    # Storage / processes
    DISK_FREE = OID("1.3.6.1.4.1.2021.9.1.7.1")      # kB free on /
    DISK_TOTAL = OID("1.3.6.1.4.1.2021.9.1.6.1")
    PROC_COUNT = OID("1.3.6.1.2.1.25.1.6.0")         # hrSystemProcesses

    # Interfaces (MIB-2 interfaces table; index appended per interface)
    IF_COUNT = OID("1.3.6.1.2.1.2.1.0")              # ifNumber
    IF_IN_OCTETS = OID("1.3.6.1.2.1.2.2.1.10")       # .index
    IF_OUT_OCTETS = OID("1.3.6.1.2.1.2.2.1.16")      # .index
    IF_OPER_STATUS = OID("1.3.6.1.2.1.2.2.1.8")      # .index (1=up, 2=down)

    # Process table (hrSWRunName-ish; index appended per slot)
    PROC_TABLE = OID("1.3.6.1.2.1.25.4.2.1.2")       # .index

    #: OID groups by request type (paper section 4.1's example workload):
    #: A = station performance, B = storage & processes, C = traffic.
    GROUP_PERFORMANCE = "performance"
    GROUP_STORAGE = "storage"
    GROUP_TRAFFIC = "traffic"

    @classmethod
    def group_oids(cls, group, interface_count=2, process_slots=3):
        """The scalar OIDs polled for a request of the given group."""
        if group == cls.GROUP_PERFORMANCE:
            return [cls.CPU_LOAD, cls.MEM_AVAIL, cls.LOAD_AVG_1MIN]
        if group == cls.GROUP_STORAGE:
            oids = [cls.DISK_FREE, cls.DISK_TOTAL, cls.PROC_COUNT]
            oids.extend(cls.PROC_TABLE.child(i + 1) for i in range(process_slots))
            return oids
        if group == cls.GROUP_TRAFFIC:
            oids = [cls.IF_COUNT]
            for index in range(1, interface_count + 1):
                oids.append(cls.IF_IN_OCTETS.child(index))
                oids.append(cls.IF_OUT_OCTETS.child(index))
                oids.append(cls.IF_OPER_STATUS.child(index))
            return oids
        raise ValueError("unknown OID group %r" % group)


#: Short alias used throughout the codebase.
std = StandardMib
