"""Hosts, sites and links.

The topology model matches the paper's deployment sketch (Figure 2): hosts
are grouped into *sites* (Site I, Site II, ...).  Hosts within a site talk
over a LAN link spec; hosts in different sites talk over the WAN spec.  A
host carries the three accounted resources the evaluation reports on --
CPU, disk and network interface.
"""

from repro.simkernel.resources import Resource, ResourceKind


class LinkSpec:
    """Latency/bandwidth/loss parameters for a class of links.

    Args:
        latency: one-way propagation delay in simulated seconds.
        bandwidth: payload units per second for transit-time computation
            (independent of the NIC capacity, which models endpoint work).
        loss_rate: probability a message is lost in transit (the grid must
            tolerate imperfect WANs; losses surface as delivery errors and
            the protocols above retry).
    """

    def __init__(self, latency, bandwidth, loss_rate=0.0):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be within [0, 1)")
        object.__setattr__(self, "latency", float(latency))
        object.__setattr__(self, "bandwidth", float(bandwidth))
        object.__setattr__(self, "loss_rate", float(loss_rate))

    def __setattr__(self, name, value):
        # Frozen by contract: the default LAN/WAN specs are shared
        # module-level singletons referenced by every run, and in-flight
        # batches hold a reference to the spec they launched under.  Fault
        # injection (``link_loss_burst``) must *replace* the spec on the
        # Network/Site, never mutate one -- mutation would silently change
        # in-flight traffic and leak the burst into later runs.
        raise AttributeError(
            "LinkSpec is immutable; build a new LinkSpec and install it "
            "(cannot set %r)" % name
        )

    def transit_time(self, size_units):
        """Propagation + serialization delay for a payload."""
        return self.latency + size_units / self.bandwidth

    def __repr__(self):
        return "LinkSpec(latency=%g, bandwidth=%g, loss=%g)" % (
            self.latency, self.bandwidth, self.loss_rate)


#: Reasonable defaults: LAN is fast/low-latency; WAN has the "high latency"
#: the paper says grids must tolerate.
DEFAULT_LAN = LinkSpec(latency=0.001, bandwidth=10000.0)
DEFAULT_WAN = LinkSpec(latency=0.050, bandwidth=1000.0)
LOOPBACK = LinkSpec(latency=0.0, bandwidth=1e9)


class Site:
    """A group of hosts sharing a LAN."""

    def __init__(self, name, lan=None):
        self.name = name
        self.lan = lan if lan is not None else DEFAULT_LAN
        self.hosts = []

    def __repr__(self):
        return "Site(%r, hosts=%d)" % (self.name, len(self.hosts))


#: Host attribute -> (resource kind, capacity attribute).
_RESOURCES = {
    "cpu": (ResourceKind.CPU, "cpu_capacity"),
    "disk": (ResourceKind.DISK, "disk_capacity"),
    "nic": (ResourceKind.NET, "net_capacity"),
}


class Host:
    """A machine with accounted CPU, disk and network-interface resources.

    Each resource is built when it is first read, so a host nobody puts
    work on (most devices) holds only its capacities.

    Args:
        sim: the simulator.
        name: unique host name.
        site: owning :class:`Site`.
        cpu_capacity / disk_capacity / net_capacity: units per second each
            resource can serve.  These are the knobs that make a host "big"
            or "small" in load-balancing experiments.
        role: free-form tag ("manager", "collector", "device", ...) used by
            the evaluation to group hosts in reports.
        tags: extra labels (e.g. capabilities) for directory experiments.
    """

    __slots__ = ("sim", "name", "site", "role", "tags", "up", "_ports",
                 "cpu_capacity", "disk_capacity", "net_capacity",
                 "cpu", "disk", "nic")

    def __init__(
        self,
        sim,
        name,
        site,
        cpu_capacity=10.0,
        disk_capacity=10.0,
        net_capacity=10.0,
        role="host",
        tags=(),
    ):
        for capacity in (cpu_capacity, disk_capacity, net_capacity):
            if capacity <= 0:
                raise ValueError(
                    "capacity must be positive, got %r" % capacity)
        self.sim = sim
        self.name = name
        self.site = site
        self.role = role
        self.tags = tuple(tags)
        self.cpu_capacity = float(cpu_capacity)
        self.disk_capacity = float(disk_capacity)
        self.net_capacity = float(net_capacity)
        self.up = True
        self._ports = {}
        site.hosts.append(self)

    def __getattr__(self, name):
        # Reached only while the ``cpu``/``disk``/``nic`` slot is empty:
        # the first read builds that resource.
        try:
            kind, capacity = _RESOURCES[name]
        except KeyError:
            raise AttributeError("%r object has no attribute %r" % (
                type(self).__name__, name)) from None
        resource = Resource(self.sim, name, kind, getattr(self, capacity),
                            owner=self)
        setattr(self, name, resource)
        return resource

    # -- port binding (used by Transport) --------------------------------

    def bind(self, port, handler):
        """Register ``handler(message)`` for deliveries to ``port``."""
        if port in self._ports:
            raise ValueError("port %r already bound on %s" % (port, self.name))
        self._ports[port] = handler

    def unbind(self, port):
        self._ports.pop(port, None)

    def handler_for(self, port):
        return self._ports.get(port)

    # -- convenience -------------------------------------------------------

    def resource(self, kind):
        if kind == ResourceKind.CPU:
            return self.cpu
        if kind == ResourceKind.DISK:
            return self.disk
        if kind == ResourceKind.NET:
            return self.nic
        raise ValueError("unknown resource kind %r" % kind)

    def resources(self):
        return (self.cpu, self.nic, self.disk)

    def fail(self):
        """Mark the host down; the transport drops traffic to/from it."""
        self.up = False

    def recover(self):
        self.up = True

    def __repr__(self):
        return "Host(%r, site=%r, role=%r)" % (self.name, self.site.name, self.role)


class Network:
    """The full topology: sites, hosts and link selection.

    Routing is trivially hierarchical, as in the paper's two-site sketch:
    loopback within a host, the site's LAN spec within a site, the WAN spec
    across sites.
    """

    def __init__(self, sim, wan=None):
        self.sim = sim
        self.wan = wan if wan is not None else DEFAULT_WAN
        self.sites = {}
        self.hosts = {}
        #: Sites whose inter-site links are currently severed (see
        #: :meth:`partition_site`).  Empty in every healthy run -- the
        #: transport only consults :meth:`severed` when this is non-empty,
        #: so the partition machinery costs nothing when unused.
        self.partitioned_sites = set()
        #: Host names forming a partition *island* (see
        #: :meth:`partition_hosts`).  Traffic crossing the island boundary
        #: is severed; traffic wholly inside or wholly outside still
        #: flows.  Empty in every healthy run, same cheap gating as
        #: :attr:`partitioned_sites`.
        self.partitioned_hosts = set()

    def add_site(self, name, lan=None):
        if name in self.sites:
            raise ValueError("site %r already exists" % name)
        site = Site(name, lan)
        self.sites[name] = site
        return site

    def site(self, name):
        """Fetch a site, creating it with default LAN parameters if new."""
        if name not in self.sites:
            return self.add_site(name)
        return self.sites[name]

    def add_host(self, name, site_name, **kwargs):
        """Create a host in ``site_name`` (site auto-created)."""
        if name in self.hosts:
            raise ValueError("host %r already exists" % name)
        host = Host(self.sim, name, self.site(site_name), **kwargs)
        self.hosts[name] = host
        return host

    def host(self, name):
        try:
            return self.hosts[name]
        except KeyError:
            raise KeyError("unknown host %r" % name) from None

    def link_between(self, src, dst):
        """The :class:`LinkSpec` governing src -> dst traffic."""
        if src is dst:
            return LOOPBACK
        if src.site is dst.site:
            return src.site.lan
        return self.wan

    def hosts_by_role(self, role):
        return [h for h in self.hosts.values() if h.role == role]

    # -- site partitions ---------------------------------------------------

    def partition_site(self, site_name):
        """Sever every inter-site link touching ``site_name``.

        Hosts inside the partitioned site keep talking to each other over
        the LAN; only traffic that crosses the site boundary is dropped.
        Idempotent.  The hosts themselves stay ``up`` -- a partition is a
        *network* failure, which is exactly why heartbeat-driven detection
        (rather than host-liveness probing) is needed above.
        """
        if site_name not in self.sites:
            raise KeyError("unknown site %r" % site_name)
        self.partitioned_sites.add(site_name)

    def heal_site(self, site_name):
        """Restore inter-site connectivity for ``site_name``.  Idempotent."""
        if site_name not in self.sites:
            raise KeyError("unknown site %r" % site_name)
        self.partitioned_sites.discard(site_name)

    def severed(self, src, dst):
        """True if src -> dst traffic crosses a partitioned site boundary."""
        if not self.partitioned_sites or src.site is dst.site:
            return False
        return (
            src.site.name in self.partitioned_sites
            or dst.site.name in self.partitioned_sites
        )

    # -- host-island partitions (split-brain) ------------------------------

    def partition_hosts(self, host_names):
        """Isolate an *island* of hosts from everything outside it.

        The classic split-brain cut: hosts inside the island keep talking
        to each other, hosts outside keep talking to each other, but any
        traffic crossing the boundary is dropped.  Unlike
        :meth:`partition_site` this cuts *within* a site too -- it is how
        the scenario catalog severs the processor-grid root from half of
        its analyzer containers while both halves stay internally healthy.
        Every host stays ``up``; only detection layered above (gossip,
        heartbeats) can see the cut.  Idempotent; a second call replaces
        the island.
        """
        names = set(host_names)
        unknown = names - set(self.hosts)
        if unknown:
            raise KeyError("unknown hosts %s" % sorted(unknown))
        self.partitioned_hosts = names

    def heal_hosts(self):
        """Dissolve the host island.  Idempotent."""
        self.partitioned_hosts = set()

    def host_severed(self, src, dst):
        """True if src -> dst traffic crosses the island boundary."""
        if not self.partitioned_hosts:
            return False
        return (src.name in self.partitioned_hosts) != (
            dst.name in self.partitioned_hosts)

    def severed_between(self, src_name, dst_name):
        """Name-based reachability check for callers that hold host names.

        Covers both partition families (site cuts and host islands) so
        the reliable channel's heal probe backs off while *either* kind
        of cut is live, instead of churning re-ship rounds into it.
        """
        if not self.partitioned_sites and not self.partitioned_hosts:
            return False
        src = self.hosts.get(src_name)
        dst = self.hosts.get(dst_name)
        if src is None or dst is None:
            return False
        return self.severed(src, dst) or self.host_severed(src, dst)

    def __repr__(self):
        return "Network(sites=%d, hosts=%d)" % (len(self.sites), len(self.hosts))
