"""The Table 1 cost model.

The paper evaluates its three architectures by attributing *relative*
CPU / network / disc costs to each management task (Table 1) and counting
what each host accumulates under 10 requests of each type (Figure 6).
This module is the single source of truth for those numbers.

Request types map to metric groups following the paper's section 4.1
workload ("processor usage, memory availability, available disk space and
the list of processes, interface traffic" -- cf. Figure 3):

* type **A** -- performance (CPU load, memory, load average);
* type **B** -- storage (disk space, process table);
* type **C** -- traffic (interface counters and status).

Provenance: the copy of the paper available to this reproduction has a
partially corrupted Table 1 -- the CPU/network digits of "Request B/C" and
the "Storing" row did not survive text extraction.  Legible cells are used
verbatim; corrupted cells carry documented estimates (marked
``estimated=True``) chosen to be consistent with the legible pattern.  The
sensitivity bench (X5) perturbs the estimated cells and shows the Figure 6
ordering is unaffected.
"""

from types import MappingProxyType


class TaskKind:
    """Management task kinds (the rows of Table 1)."""

    REQUEST = "request"          # poll managed objects from a device
    PARSE = "parse"              # normalize/extract relevant information
    STORE = "store"              # classify + persist records
    INFER = "infer"              # run inference rules over one cluster
    INFER_CROSS = "infer-cross"  # the paper's "Inference AxBxC"

    ALL = (REQUEST, PARSE, STORE, INFER, INFER_CROSS)


#: Request type -> metric group.
REQUEST_TYPE_GROUPS = {
    "A": "performance",
    "B": "storage",
    "C": "traffic",
}

#: Metric group -> request type (inverse of the above).
GROUP_REQUEST_TYPES = {group: rtype for rtype, group in REQUEST_TYPE_GROUPS.items()}


class TaskCost:
    """Relative CPU / network / disc cost of one task execution."""

    __slots__ = ("cpu", "net", "disk", "estimated")

    def __init__(self, cpu=0.0, net=0.0, disk=0.0, estimated=False):
        if min(cpu, net, disk) < 0:
            raise ValueError("costs must be non-negative")
        self.cpu = float(cpu)
        self.net = float(net)
        self.disk = float(disk)
        self.estimated = estimated

    def scaled(self, factor):
        """This cost multiplied by ``factor`` (sensitivity experiments)."""
        if factor < 0:
            raise ValueError("factor must be >= 0")
        return TaskCost(
            self.cpu * factor, self.net * factor, self.disk * factor,
            estimated=self.estimated,
        )

    @property
    def total(self):
        return self.cpu + self.net + self.disk

    def __eq__(self, other):
        return (
            isinstance(other, TaskCost)
            and (other.cpu, other.net, other.disk) == (self.cpu, self.net, self.disk)
        )

    def __repr__(self):
        return "TaskCost(cpu=%g, net=%g, disk=%g%s)" % (
            self.cpu, self.net, self.disk, ", est" if self.estimated else "",
        )


def _default_table():
    """Table 1, with documented estimates for the corrupted cells."""
    verbatim = TaskCost
    return {
        # -- verbatim from the paper ------------------------------------
        (TaskKind.REQUEST, "A"): verbatim(cpu=10, net=5),
        (TaskKind.PARSE, "A"): verbatim(cpu=15),
        (TaskKind.PARSE, "B"): verbatim(cpu=15),
        (TaskKind.PARSE, "C"): verbatim(cpu=15),
        (TaskKind.INFER, "A"): verbatim(cpu=20, net=5),
        (TaskKind.INFER, "B"): verbatim(cpu=20, net=5),
        (TaskKind.INFER, "C"): verbatim(cpu=20, net=5),
        (TaskKind.INFER_CROSS, None): verbatim(cpu=40, net=8),
        # -- estimated (digits lost in the available copy) ----------------
        (TaskKind.REQUEST, "B"): TaskCost(cpu=10, net=5, estimated=True),
        (TaskKind.REQUEST, "C"): TaskCost(cpu=10, net=5, estimated=True),
        (TaskKind.STORE, None): TaskCost(cpu=10, net=5, disk=20, estimated=True),
    }


class CostModel:
    """Maps (task kind, request type) to :class:`TaskCost`.

    Also derives the message-size constants the pipeline uses, chosen so
    that the *network ledger* of a host performing a task matches the
    task's Table 1 network cost:

    * a poll costs ``poll_request_size + poll_response_size`` =
      ``REQUEST.net`` at the polling host;
    * an inference's storage fetch costs ``fetch_query_size +
      fetch_reply_size`` = ``INFER.net`` at the analyzing host;
    * the cross-inference fetch likewise sums to ``INFER_CROSS.net``.

    Parsing shrinks a record from ``raw_record_size`` (= poll response) to
    ``parsed_record_size`` -- the multi-agent/grid models ship the small
    form, the centralized model pays the raw form; this asymmetry is the
    paper's "reduction in communication traffic".
    """

    #: parsed size as a fraction of raw (the parse step drops ~2/3).
    PARSE_SHRINK = 1.0 / 3.0

    def __init__(self, table=None, overrides=None):
        self._table = dict(table if table is not None else _default_table())
        if overrides:
            self._table.update(overrides)
        request_net = self.cost(TaskKind.REQUEST, "A").net
        self.poll_request_size = 0.1 * request_net
        self.poll_response_size = 0.9 * request_net
        self.raw_record_size = self.poll_response_size
        self.parsed_record_size = self.raw_record_size * self.PARSE_SHRINK
        infer_net = self.cost(TaskKind.INFER, "A").net
        self.fetch_query_size = 0.1 * infer_net
        self.fetch_reply_size = 0.9 * infer_net
        cross_net = self.cost(TaskKind.INFER_CROSS, None).net
        self.cross_query_size = 0.1 * cross_net
        self.cross_reply_size = 0.9 * cross_net
        self.notify_size = 0.2
        self.report_size = 2.0
        # Per-kind lookup caches: the pipeline charges a cost per record,
        # so the (kind, request_type) -> TaskCost resolution (key
        # normalization, tuple build, dict probe, error wrap) dominates the
        # charge path at scale.  The table is immutable after construction
        # (derived models build a fresh CostModel), so the entries are
        # resolved once here and call sites index plain dicts.
        self.request_costs = self._kind_cache(TaskKind.REQUEST)
        self.parse_costs = self._kind_cache(TaskKind.PARSE)
        self.infer_costs = self._kind_cache(TaskKind.INFER)
        self.store_cost_entry = self._table.get((TaskKind.STORE, None))
        self.cross_cost_entry = self._table.get((TaskKind.INFER_CROSS, None))
        # Enforce the immutability the caches above assume: runtime model
        # changes (chaos plans, scenario overrides) must build a fresh
        # CostModel via derive()/scaled(), never poke the table of a live
        # one -- a poked entry would silently diverge from the cached
        # sizes/entries resolved here.  Same contract as LinkSpec: swap
        # the object, don't mutate it.
        self._table = MappingProxyType(self._table)

    def _kind_cache(self, kind):
        return {
            rtype: entry
            for (entry_kind, rtype), entry in self._table.items()
            if entry_kind == kind
        }

    # -- lookups --------------------------------------------------------

    def cost(self, kind, request_type=None):
        """The cost entry for a task; raises KeyError when undefined."""
        if kind in (TaskKind.STORE, TaskKind.INFER_CROSS):
            key = (kind, None)
        else:
            key = (kind, request_type)
        try:
            return self._table[key]
        except KeyError:
            raise KeyError(
                "no cost for task %r / request type %r" % (kind, request_type)
            ) from None

    def request_cost(self, request_type):
        entry = self.request_costs.get(request_type)
        if entry is None:
            return self.cost(TaskKind.REQUEST, request_type)
        return entry

    def parse_cost(self, request_type):
        entry = self.parse_costs.get(request_type)
        if entry is None:
            return self.cost(TaskKind.PARSE, request_type)
        return entry

    def store_cost(self):
        if self.store_cost_entry is None:
            return self.cost(TaskKind.STORE)
        return self.store_cost_entry

    def infer_cost(self, request_type):
        entry = self.infer_costs.get(request_type)
        if entry is None:
            return self.cost(TaskKind.INFER, request_type)
        return entry

    def cross_cost(self):
        if self.cross_cost_entry is None:
            return self.cost(TaskKind.INFER_CROSS)
        return self.cross_cost_entry

    def for_group(self, group):
        """Request type letter for a metric group ("performance" -> "A")."""
        try:
            return GROUP_REQUEST_TYPES[group]
        except KeyError:
            raise KeyError("unknown metric group %r" % group) from None

    # -- derived models ----------------------------------------------------------

    def with_estimates_scaled(self, factor):
        """A model with every *estimated* cell scaled (sensitivity bench)."""
        table = {
            key: (cost.scaled(factor) if cost.estimated else cost)
            for key, cost in self._table.items()
        }
        return CostModel(table)

    def with_override(self, kind, request_type, cost):
        """A model with one cell replaced."""
        key = (kind, None) if kind in (TaskKind.STORE, TaskKind.INFER_CROSS) \
            else (kind, request_type)
        table = dict(self._table)
        table[key] = cost
        return CostModel(table)

    # -- presentation -------------------------------------------------------------

    def table_rows(self):
        """Rows shaped like the paper's Table 1 (for the T1 bench)."""
        rows = []
        for rtype in ("A", "B", "C"):
            cost = self.request_cost(rtype)
            rows.append(("Request %s" % rtype, cost))
        for rtype in ("A", "B", "C"):
            rows.append(("Parse %s" % rtype, self.parse_cost(rtype)))
        rows.append(("Storing", self.store_cost()))
        for rtype in ("A", "B", "C"):
            rows.append(("Inference %s" % rtype, self.infer_cost(rtype)))
        rows.append(("Inference AxBxC", self.cross_cost()))
        return rows

    def __repr__(self):
        return "CostModel(%d entries)" % len(self._table)


#: The default, paper-faithful cost model.
DEFAULT_COST_MODEL = CostModel()
