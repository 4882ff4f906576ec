"""The common representation of collected management data.

Section 3.1 of the paper: "The information extracted from network devices
could have quite heterogeneous formats and therefore it is necessary to
create a common representation for these data [...] using XML and
ontologies."  The equivalent here is :class:`ManagementRecord` -- a
normalized, self-describing bundle of :class:`Sample` values produced from
raw SNMP varbinds, with an explicit wire-size model (raw records are large;
parsing extracts the relevant samples and shrinks them).
"""

import functools
import itertools

from repro.rules.facts import Fact
from repro.snmp.mib import std


#: Maps MIB object-name prefixes to normalized metric names.
_METRIC_BY_MIB_NAME = {
    "ssCpuBusy": "cpu_load",
    "memAvailReal": "mem_available",
    "laLoad1": "load_avg",
    "dskAvail": "disk_free",
    "dskTotal": "disk_total",
    "hrSystemProcesses": "proc_count",
    "ifNumber": "if_count",
    "ifInOctets": "if_in_octets",
    "ifOutOctets": "if_out_octets",
    "ifOperStatus": "if_oper_status",
    "hrSWRunName": "proc_name",
}

#: Metrics regarded as analysis-relevant; parsing drops the rest.
RELEVANT_METRICS = frozenset(
    metric for metric in _METRIC_BY_MIB_NAME.values()
    if metric not in ("proc_name", "if_count", "disk_total")
)


@functools.cache
def metric_from_mib_name(mib_name):
    """Normalize a MIB object name ("ifInOctets.2") to (metric, instance)."""
    base, dot, suffix = mib_name.partition(".")
    metric = _METRIC_BY_MIB_NAME.get(base)
    if metric is None:
        return None, None
    instance = int(suffix) if dot and suffix.isdigit() else None
    return metric, instance


class Sample:
    """One normalized metric observation."""

    __slots__ = ("device", "site", "group", "metric", "value", "instance", "time")

    def __init__(self, device, site, group, metric, value, time, instance=None):
        self.device = device
        self.site = site
        self.group = group
        self.metric = metric
        self.value = value
        self.instance = instance
        self.time = time

    def fact_attrs(self):
        """The attributes of this sample's ``sample`` fact, in a new dict."""
        attrs = {
            "device": self.device,
            "site": self.site,
            "group": self.group,
            "metric": self.metric,
            "value": self.value,
            "time": self.time,
        }
        if self.instance is not None:
            attrs["instance"] = self.instance
        return attrs

    def to_fact(self):
        """The working-memory fact the rule engine consumes."""
        return Fact.owning("sample", self.fact_attrs())

    def __repr__(self):
        suffix = "[%s]" % self.instance if self.instance is not None else ""
        return "Sample(%s.%s%s=%r)" % (self.device, self.metric, suffix, self.value)


class ManagementRecord:
    """The per-request bundle of samples in the common representation.

    One collection request (Table 1's "Request A/B/C") yields one record.
    A record starts *raw* (wire size = the poll response) and becomes
    *parsed* after the parse task extracts the relevant samples.

    Args:
        device / site: origin of the data.
        request_type: "A" / "B" / "C".
        group: metric group ("performance" / "storage" / "traffic").
        samples: list of :class:`Sample`.
        collected_at: simulation time of collection.
        size_units: current wire size (set from the cost model).
        parsed: whether the parse task has run.
    """

    _ids = itertools.count(1)

    def __init__(
        self, device, site, request_type, group, samples, collected_at,
        size_units, parsed=False,
    ):
        self.id = next(ManagementRecord._ids)
        self.device = device
        self.site = site
        self.request_type = request_type
        self.group = group
        self.samples = list(samples)
        self.collected_at = collected_at
        self.size_units = float(size_units)
        self.parsed = parsed

    @classmethod
    def from_varbinds(
        cls, device, site, request_type, group, varbinds, collected_at, size_units,
    ):
        """Normalize SNMP varbinds into a raw record."""
        samples = []
        for varbind in varbinds:
            if varbind.error is not None:
                continue
            metric, instance = metric_from_mib_name(varbind.name)
            if metric is None:
                continue
            samples.append(Sample(device, site, group, metric, varbind.value,
                                  collected_at, instance))
        return cls(
            device, site, request_type, group, samples, collected_at,
            size_units, parsed=False,
        )

    def parse(self, parsed_size_units):
        """The parse task: keep relevant samples, shrink the record.

        Returns a new parsed record; the original is unchanged (records may
        be retained raw at the collector for audit).
        """
        kept = [
            sample for sample in self.samples if sample.metric in RELEVANT_METRICS
        ]
        record = ManagementRecord(
            self.device, self.site, self.request_type, self.group, kept,
            self.collected_at, parsed_size_units, parsed=True,
        )
        return record

    def shard_key(self):
        """The key the sharded classifier/storage grid partitions on.

        Records shard by *device* so one shard owns every record (and the
        whole metric history) of a device -- level-2 consolidation stays
        shard-local.
        """
        return self.device

    def to_facts(self):
        return [sample.to_fact() for sample in self.samples]

    def metrics(self):
        return sorted({sample.metric for sample in self.samples})

    def __len__(self):
        return len(self.samples)

    def __repr__(self):
        return "ManagementRecord(#%d %s/%s, samples=%d, %s)" % (
            self.id, self.device, self.request_type, len(self.samples),
            "parsed" if self.parsed else "raw",
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
