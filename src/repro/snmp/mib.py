"""MIB trees and the standard managed-object set.

A :class:`MibTree` is an ordered registry of :class:`MibObject` entries.
Objects can be static values or callables evaluated at read time.
GETNEXT walks the tree in OID order, exactly like real SNMP.  A
:class:`MibTemplate` is one schema shared by every device of a shape:
bound to a device, it is that device's tree, and builds nothing per device.

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
        self._subject = None

    def register(self, mib_object):
        """Add an object; OIDs must be unique."""
        if self._subject is not None:
            raise ValueError("a bound MIB shares its template's objects; "
                             "cannot register %s" % mib_object.name)
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

    def _view(self, obj):
        """``obj`` as this tree hands it out: bound to the subject, if any."""
        if obj is None or self._subject is None:
            return obj
        return _Bound(obj, self._subject)

    def get(self, oid):
        """The object at exactly ``oid``, or None."""
        obj = self._objects.get(oid if isinstance(oid, OID) else OID(oid))
        if obj is None or self._subject is None:
            return obj
        return _Bound(obj, self._subject)

    def read_at(self, oid):
        """``(object, value)`` at exactly ``oid``, or None: a GET's read.
        It takes no view: a bound tree reads the template's object against
        its subject, and hands out that shared object."""
        obj = self._objects.get(oid if isinstance(oid, OID) else OID(oid))
        if obj is None:
            return None
        if self._subject is None:
            return obj, obj.read()
        return obj, obj._value(self._subject)

    def get_next(self, oid):
        """The first object with OID strictly greater than ``oid``, or None."""
        order = self._order
        index = bisect.bisect_right(order, as_oid(oid))
        if index >= len(order):
            return None
        return self._view(self._objects[order[index]])

    def walk(self, prefix):
        """All objects within the subtree rooted at ``prefix``, in order."""
        prefix = as_oid(prefix)
        order = self._order
        index = bisect.bisect_left(order, prefix)
        results = []
        while index < len(order):
            oid = order[index]
            if not prefix.is_prefix_of(oid):
                break
            results.append(self._view(self._objects[oid]))
            index += 1
        return results

    def oids(self):
        return list(self._order)


class MibTemplate:
    """One MIB schema, shared by every subject (device) of one shape: its
    :class:`MibObject` entries' values are readers of the subject.  A
    writable one is refused, as a SET on one subject would show on all."""

    def __init__(self, objects):
        self._objects = {}
        for obj in objects:
            if obj.writable or obj.oid in self._objects:
                raise ValueError("template object %s (%s) is %s" % (
                    obj.oid, obj.name,
                    "writable" if obj.writable else "a duplicate OID"))
            self._objects[obj.oid] = obj
        self._order = sorted(self._objects)

    def bind(self, subject):
        """``subject``'s MIB: a :class:`MibTree` that shares this template's
        objects and order and reads them against ``subject``."""
        tree = MibTree()
        tree._objects, tree._order = self._objects, self._order
        tree._subject = subject
        return tree


class _Bound:
    """A template object read against one subject; read-only."""

    __slots__ = ("oid", "name", "entry", "subject")
    writable = False
    units = property(lambda self: self.entry.units)

    def __init__(self, entry, subject):
        self.oid, self.name = entry.oid, entry.name
        self.entry, self.subject = entry, subject

    def read(self):
        return self.entry._value(self.subject)

    def write(self, value):
        raise PermissionError("object %s (%s) is read-only"
                              % (self.oid, self.name))


class _Instances(dict):
    """The instance OIDs ``column.child(index)`` of one table column.

    Each index's OID is built on first use and shared from then on by
    every MIB and request (an :class:`OID` is immutable).
    """

    def __init__(self, column):
        super().__init__()
        self.column = column

    def __missing__(self, index):
        oid = self[index] = self.column.child(index)
        return oid


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

    #: Instance OIDs by index: ``IF_IN_OCTETS_AT[i]`` is
    #: ``IF_IN_OCTETS.child(i)``, built once.
    IF_IN_OCTETS_AT = _Instances(IF_IN_OCTETS)
    IF_OUT_OCTETS_AT = _Instances(IF_OUT_OCTETS)
    IF_OPER_STATUS_AT = _Instances(IF_OPER_STATUS)
    PROC_TABLE_AT = _Instances(PROC_TABLE)

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
            oids.extend(cls.PROC_TABLE_AT[i + 1] for i in range(process_slots))
            return oids
        if group == cls.GROUP_TRAFFIC:
            oids = [cls.IF_COUNT]
            for index in range(1, interface_count + 1):
                oids.append(cls.IF_IN_OCTETS_AT[index])
                oids.append(cls.IF_OUT_OCTETS_AT[index])
                oids.append(cls.IF_OPER_STATUS_AT[index])
            return oids
        raise ValueError("unknown OID group %r" % group)


#: Short alias used throughout the codebase.
std = StandardMib
