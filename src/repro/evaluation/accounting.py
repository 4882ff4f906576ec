"""Per-host resource-utilization accounting (the Figure 6 measurement).

A :class:`UtilizationReport` snapshots the CPU / network / disc ledgers of
a set of hosts.  The paper's Figure 6 plots, per host and per resource, the
relative work accumulated during the scenario; the equivalent here is
*units* (busy units accounted by the resource ledgers), plus busy-time and
utilization fractions against the run horizon.
"""

from repro.evaluation.tables import format_number, format_table
from repro.simkernel.resources import ResourceKind


class HostUtilization:
    """One host's accumulated resource usage."""

    def __init__(self, host_name, role, units, busy_time, horizon):
        self.host_name = host_name
        self.role = role
        self.units = dict(units)          # kind -> units
        self.busy_time = dict(busy_time)  # kind -> seconds busy
        self.horizon = horizon

    @classmethod
    def from_host(cls, host, horizon):
        units = {}
        busy_time = {}
        for resource in host.resources():
            units[resource.kind] = resource.total_units
            busy_time[resource.kind] = resource.busy_time
        return cls(host.name, host.role, units, busy_time, horizon)

    def utilization(self, kind):
        if self.horizon <= 0:
            return 0.0
        return self.busy_time.get(kind, 0.0) / self.horizon

    @property
    def cpu_units(self):
        return self.units.get(ResourceKind.CPU, 0.0)

    @property
    def net_units(self):
        return self.units.get(ResourceKind.NET, 0.0)

    @property
    def disk_units(self):
        return self.units.get(ResourceKind.DISK, 0.0)

    @property
    def total_units(self):
        return sum(self.units.values())

    def __repr__(self):
        return "HostUtilization(%s: cpu=%g, net=%g, disk=%g)" % (
            self.host_name, self.cpu_units, self.net_units, self.disk_units,
        )


class UtilizationReport:
    """Per-host utilization rows for one architecture run."""

    def __init__(self, label, rows, horizon, makespan=None):
        self.label = label
        self.rows = sorted(rows, key=lambda row: row.host_name)
        self.horizon = horizon
        self.makespan = makespan

    @classmethod
    def from_hosts(cls, label, hosts, horizon, makespan=None):
        rows = [HostUtilization.from_host(host, horizon) for host in hosts]
        return cls(label, rows, horizon, makespan)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def host(self, host_name):
        for row in self.rows:
            if row.host_name == host_name:
                return row
        raise KeyError("no host %r in report %s" % (host_name, self.label))

    def host_names(self):
        return [row.host_name for row in self.rows]

    # -- aggregates ------------------------------------------------------

    def total_units(self, kind=None):
        if kind is None:
            return sum(row.total_units for row in self.rows)
        return sum(row.units.get(kind, 0.0) for row in self.rows)

    def max_host(self, kind):
        """(host_name, units) of the heaviest host for a resource kind."""
        if not self.rows:
            return (None, 0.0)
        best = max(self.rows, key=lambda row: (row.units.get(kind, 0.0),
                                               row.host_name))
        return (best.host_name, best.units.get(kind, 0.0))

    def bottleneck(self):
        """The host with the largest total accumulated units."""
        if not self.rows:
            return None
        return max(self.rows, key=lambda row: (row.total_units, row.host_name))

    def balance_index(self, kind=ResourceKind.CPU):
        """Jain's fairness index over per-host units (1.0 = perfectly even)."""
        values = [row.units.get(kind, 0.0) for row in self.rows]
        total = sum(values)
        if total <= 0:
            return 1.0
        squares = sum(value * value for value in values)
        return (total * total) / (len(values) * squares)

    # -- presentation -------------------------------------------------------

    def as_rows(self):
        """Printable rows: host, role, cpu/net/disk units, cpu utilization."""
        rows = []
        for row in self.rows:
            rows.append((
                row.host_name,
                row.role,
                format_number(row.cpu_units),
                format_number(row.net_units),
                format_number(row.disk_units),
                "%.1f%%" % (100.0 * row.utilization(ResourceKind.CPU)),
            ))
        return rows

    def render(self):
        title = "[%s]  horizon=%.1fs" % (self.label, self.horizon)
        if self.makespan is not None:
            title += "  makespan=%.1fs" % self.makespan
        return format_table(
            ("host", "role", "CPU", "Network", "Disc", "CPU util"),
            self.as_rows(),
            title=title,
        )

    def __repr__(self):
        return "UtilizationReport(%r, hosts=%d)" % (self.label, len(self.rows))


def compare_reports(reports, kind=ResourceKind.CPU):
    """Cross-architecture comparison rows (the Figure 6 'who wins' view).

    Returns a list of dicts, one per report: label, max per-host units, the
    bottleneck host, total units and the balance index -- sorted by
    max-host units ascending (winner first).
    """
    comparison = []
    for report in reports:
        host_name, units = report.max_host(kind)
        comparison.append({
            "label": report.label,
            "max_host": host_name,
            "max_host_units": units,
            "total_units": report.total_units(kind),
            "balance_index": report.balance_index(kind),
            "makespan": report.makespan,
        })
    comparison.sort(key=lambda entry: entry["max_host_units"])
    return comparison
