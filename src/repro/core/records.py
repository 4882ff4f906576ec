"""The common representation of collected management data.

Section 3.1 of the paper: "The information extracted from network devices
could have quite heterogeneous formats and therefore it is necessary to
create a common representation for these data [...] using XML and
ontologies."  The equivalent here is :class:`ManagementRecord` -- a
normalized, self-describing bundle of ``(metric, instance, value)``
tuples produced from raw SNMP varbinds, with an explicit wire-size model
(raw records are large; parsing shrinks them).
"""

import functools

from repro.snmp.mib import std


#: Maps MIB object-name prefixes to the normalized metrics analysis reads.
#: A poll also requests ``hrSWRunName``, ``ifNumber`` and ``dskTotal``
#: (they cost wire size and device work) but no rule reads them, so they
#: never become values.
_METRIC_BY_MIB_NAME = {
    "ssCpuBusy": "cpu_load",
    "memAvailReal": "mem_available",
    "laLoad1": "load_avg",
    "dskAvail": "disk_free",
    "hrSystemProcesses": "proc_count",
    "ifInOctets": "if_in_octets",
    "ifOutOctets": "if_out_octets",
    "ifOperStatus": "if_oper_status",
}


@functools.cache
def metric_from_mib_name(mib_name):
    """Normalize a MIB object name ("ifInOctets.2") to (metric, instance)."""
    base, dot, suffix = mib_name.partition(".")
    metric = _METRIC_BY_MIB_NAME.get(base)
    if metric is None:
        return None, None
    instance = int(suffix) if dot and suffix.isdigit() else None
    return metric, instance


class ManagementRecord:
    """The per-request bundle of values in the common representation.

    One collection request (Table 1's "Request A/B/C") yields one record.
    A record starts *raw* (wire size = the poll response) and becomes
    *parsed* after the parse task shrinks it.

    Args:
        device / site: origin of the data.
        request_type: "A" / "B" / "C".
        group: metric group ("performance" / "storage" / "traffic").
        values: list of ``(metric, instance, value)`` tuples, observed at
            ``collected_at``; ``instance`` is None for a scalar.  The
            record owns the list.
        collected_at: simulation time of collection.
        size_units: current wire size (set from the cost model).
        parsed: whether the parse task has run.
    """

    def __init__(
        self, device, site, request_type, group, values, collected_at,
        size_units, parsed=False,
    ):
        self.device = device
        self.site = site
        self.request_type = request_type
        self.group = group
        self.values = values
        self.collected_at = collected_at
        self.size_units = float(size_units)
        self.parsed = parsed

    @classmethod
    def from_varbinds(
        cls, device, site, request_type, group, varbinds, collected_at, size_units,
    ):
        """Normalize SNMP varbinds into a raw record."""
        values = []
        for varbind in varbinds:
            if varbind.error is not None:
                continue
            metric, instance = metric_from_mib_name(varbind.name)
            if metric is None:
                continue
            values.append((metric, instance, varbind.value))
        return cls(
            device, site, request_type, group, values, collected_at,
            size_units, parsed=False,
        )

    def parse(self, parsed_size_units):
        """The parse task: shrink the record to its parsed wire size.

        Returns a new parsed record with its own copy of the values: the
        classifier extends a parsed record's values with derived rates,
        and the original must stay raw (records may be retained raw at
        the collector for audit, and a redelivered envelope must arrive
        as it left).
        """
        return ManagementRecord(
            self.device, self.site, self.request_type, self.group,
            list(self.values), self.collected_at, parsed_size_units,
            parsed=True,
        )

    def __repr__(self):
        return "ManagementRecord(%s/%s @%g, values=%d, %s)" % (
            self.device, self.request_type, self.collected_at,
            len(self.values), "parsed" if self.parsed else "raw",
        )


class CollectionGoal:
    """A collector agent's goal (section 3.1): which objects, where, when.

    Args:
        device_name: the managed device to poll.
        request_type: "A" / "B" / "C" (decides the OID group).
        count: how many polls to perform (None = unbounded).
        interval: seconds between polls.
        start_after: delay before the first poll.
    """

    def __init__(self, device_name, request_type, count=1, interval=1.0,
                 start_after=0.0):
        from repro.core.costs import REQUEST_TYPE_GROUPS

        if request_type not in REQUEST_TYPE_GROUPS:
            raise ValueError("unknown request type %r" % request_type)
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.device_name = device_name
        self.request_type = request_type
        self.group = REQUEST_TYPE_GROUPS[request_type]
        self.count = count
        self.interval = interval
        self.start_after = start_after

    def oids(self, interface_count=2, process_slots=3):
        """The OIDs one poll of this goal requests."""
        return std.group_oids(
            self.group, interface_count=interface_count,
            process_slots=process_slots,
        )

    def __repr__(self):
        return "CollectionGoal(%s type-%s x%s @%gs)" % (
            self.device_name, self.request_type,
            self.count if self.count is not None else "inf", self.interval,
        )
