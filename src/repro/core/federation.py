"""Multi-site federation: the paper's Site I / Site II deployment.

Figure 2 of the paper spans two sites, each with its own collector and
classifier grids, feeding a shared processing grid whose knowledge base is
fed back from both; Figure 5's baseline is the same hardware *without*
integration ("there's no relation among different sites [...] no high
level analysis can be carried out").

A site is a grid: every mode builds one
:class:`~repro.core.system.GridManagementSystem` per site on one shared
:class:`~repro.core.system.Fabric`, so any difference in findings or
utilization is due to the architecture alone:

* ``"integrated"`` -- site 1's grid owns the one root and interface; the
  other sites' grids report to them, and the root's cross-analysis
  window correlates problems across sites' datasets;
* ``"siloed"`` -- independent per-site grids (the Figure 5 baseline);
* ``"mesh"`` -- the siloed grids plus a :class:`SiteGatewayAgent` per
  site: heartbeat-driven link state, explicit degradation of a
  partitioned peer's devices, and cross-site job forwarding when the
  local processor grid saturates.
"""

from repro.agents.acl import ACLMessage, MessageTemplate, Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import CyclicBehaviour, TickerBehaviour
from repro.agents.ontology import (
    ANALYSIS_JOB,
    ANALYSIS_RESULT,
    FORWARDED_JOB,
    FORWARDED_RESULT,
    SITE_HEARTBEAT,
    SITE_STATUS,
)
from repro.core.costs import DEFAULT_COST_MODEL
from repro.core.liveness import ALIVE, DOWN, HEALING, SUSPECT
from repro.core.liveness import TIMEOUT_BEACONS, FailureDetector
from repro.core.reports import Finding, ManagementReport
from repro.core.system import (
    DeviceSpec,
    Fabric,
    GridManagementSystem,
    GridTopologySpec,
    HostSpec,
)

INTEGRATED = "integrated"
SILOED = "siloed"
MESH = "mesh"

#: Link states a gateway reports per peer site, by detector status.
LINK_UP = "up"
LINK_SUSPECT = "suspect"
LINK_PARTITIONED = "partitioned"
LINK_HEALING = "healing"
_LINK_STATES = {ALIVE: LINK_UP, SUSPECT: LINK_SUSPECT,
                DOWN: LINK_PARTITIONED, HEALING: LINK_HEALING}
#: Cap on the probe backoff toward a partitioned peer, in beacon intervals.
PROBE_BACKOFF_BEACONS = 8

#: ``GridTopologySpec`` options the federation derives for every site.
_FEDERATION_OPTIONS = frozenset((
    "devices", "collector_hosts", "analysis_hosts", "storage_host",
    "interface_host", "policy", "dataset_threshold", "cost_model", "seed",
    "knowledge_base_factory", "job_timeout", "wan", "reliability",
    "telemetry",
))
#: Site grid options that build machinery around a root of the site's
#: own, which an integrated site (other than the first) does not have.
_PER_ROOT_OPTIONS = ("shards", "gossip")


class SiteSpec:
    """One site: its devices, its grid's size, and further
    ``GridTopologySpec`` options (e.g. ``shards=2``) for its grid.

    Options the federation sets itself, and per-site ``slos`` (a health
    monitor would walk every site on the shared fabric), raise
    ``ValueError``.  Devices are placed at this site.
    """

    def __init__(self, name, devices, collector_count=1, analyzer_count=1,
                 **grid_options):
        if not devices:
            raise ValueError("site %r needs at least one device" % name)
        if collector_count < 1:
            raise ValueError("site %r needs at least one collector" % name)
        if analyzer_count < 1:
            raise ValueError("site %r needs at least one analyzer" % name)
        for key in sorted(grid_options):
            if key in _FEDERATION_OPTIONS:
                raise ValueError(
                    "site %r: %s is set by the federation" % (name, key))
            if key == "slos":
                raise ValueError(
                    "site %r: per-site slos are not supported (a health "
                    "monitor would mix every site on the shared fabric)"
                    % name)
        self.name = name
        self.devices = [DeviceSpec(device.name, device.profile, name)
                        for device in devices]
        self.collector_count = collector_count
        self.analyzer_count = analyzer_count
        self.grid_options = grid_options

    @classmethod
    def simple(cls, name, device_count=2, collector_count=1,
               analyzer_count=1, **grid_options):
        profiles = ("server", "router")
        devices = [
            DeviceSpec("%s-dev%d" % (name, index + 1),
                       profiles[index % len(profiles)], name)
            for index in range(device_count)
        ]
        return cls(name, devices, collector_count, analyzer_count,
                   **grid_options)

    def __repr__(self):
        return "SiteSpec(%r, devices=%d)" % (self.name, len(self.devices))


class FederatedTopologySpec:
    """A multi-site deployment description.

    Args:
        sites: list of :class:`SiteSpec`, each built as one grid.
        mode: :data:`INTEGRATED`, :data:`SILOED` or :data:`MESH`.
        policy: placement-policy name, for every site's root.
        dataset_threshold: per-classifier dataset size.
        cross_window: how long cross jobs remember other datasets' problems
            (integrated mode; enables multi-site correlation).
        seed / cost_model / wan / job_timeout / knowledge_base_factory: as
            in ``GridTopologySpec``, shared by every site.
        federation_reliability: install a
            :class:`~repro.network.reliable.ReliableChannel` on the shared
            fabric -- ``True`` for defaults, a dict for channel kwargs,
            ``False`` (default) for fire-and-forget delivery.
        telemetry: attach the flight recorder -- ``True``/dict/``False``
            as in ``GridTopologySpec``; trace context then crosses the
            site boundary with forwarded jobs.
        heartbeat_interval: seconds between inter-site gateway beacons
            (mesh mode only, where it defaults to 1.0; any other mode
            raises ``ValueError``); the gateways' liveness timing derives
            from it (see :class:`SiteGatewayAgent`).
        forwarding_budget: max in-flight forwarded jobs per peer site.
        forward_threshold: per-container outstanding-job count at which
            the local grid counts as saturated (see
            ``ProcessorRootAgent.forward_threshold``).
    """

    def __init__(
        self,
        sites,
        mode=INTEGRATED,
        policy="knowledge",
        dataset_threshold=6,
        cross_window=120.0,
        seed=0,
        cost_model=None,
        wan=None,
        job_timeout=60.0,
        knowledge_base_factory=None,
        federation_reliability=False,
        telemetry=False,
        heartbeat_interval=None,
        forwarding_budget=4,
        forward_threshold=2,
    ):
        if len(sites) < 1:
            raise ValueError("at least one site is required")
        if mode not in (INTEGRATED, SILOED, MESH):
            raise ValueError("unknown federation mode %r" % mode)
        if mode == MESH and len(sites) < 2:
            raise ValueError("mesh mode needs at least two sites")
        if mode == INTEGRATED:
            for site in sites:
                for key in _PER_ROOT_OPTIONS:
                    if key in site.grid_options:
                        raise ValueError(
                            "site %r: %s needs a per-site root; integrated "
                            "mode shares one (use siloed or mesh)"
                            % (site.name, key))
        self.sites = list(sites)
        self.mode = mode
        self.policy = policy
        self.dataset_threshold = dataset_threshold
        self.cross_window = cross_window
        self.seed = seed
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.wan = wan
        self.job_timeout = job_timeout
        self.knowledge_base_factory = knowledge_base_factory
        self.federation_reliability = federation_reliability
        self.telemetry = telemetry
        if heartbeat_interval is not None and mode != MESH:
            raise ValueError(
                "heartbeat_interval sets the mesh gateways' beacons; "
                "%s mode has no gateways" % mode)
        if heartbeat_interval is None and mode == MESH:
            heartbeat_interval = 1.0
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.heartbeat_interval = heartbeat_interval
        if forwarding_budget < 1:
            raise ValueError("forwarding_budget must be >= 1")
        self.forwarding_budget = forwarding_budget
        if forward_threshold < 1:
            raise ValueError("forward_threshold must be >= 1")
        self.forward_threshold = forward_threshold

    def __repr__(self):
        return "FederatedTopologySpec(%s, sites=%d)" % (self.mode, len(self.sites))


class SiteGatewayAgent(Agent):
    """One site's endpoint in the partition-tolerant federation mesh.

    Each gateway's :class:`~repro.core.liveness.FailureDetector`, fed by
    inter-site heartbeats, walks each peer's :attr:`link_state` (the
    timeout is ``TIMEOUT_BEACONS`` beacon intervals)::

        up --silence > timeout/2--> suspect --silence > timeout--> partitioned
        partitioned --beacon--> healing --beacon--> up

    While a peer is partitioned the gateway probes it at a doubling
    backoff capped at :attr:`reconnect_max_backoff` and tells the local
    interface to mark the peer's devices offline (plus a major
    ``site-partition`` finding; an info ``site-partition-heal`` finding
    clears it).  Beacons piggyback a capacity advertisement so
    :meth:`try_forward` can ship surplus jobs to the idlest reachable
    peer when the local processor grid saturates; forwarded jobs and
    their results ride the reliable channel and carry trace context so
    a cross-site chain audits end to end.
    """

    def __init__(self, name, site, interface_name, root, peer_gateways,
                 devices_by_site, heartbeat_interval=1.0,
                 forwarding_budget=4, cost_model=None):
        super().__init__(name)
        self.site = site
        self.interface_name = interface_name
        self.root = root
        self.peer_gateways = dict(peer_gateways)   # peer site -> gateway name
        self.devices_by_site = {
            peer: list(devices) for peer, devices in devices_by_site.items()
        }
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = TIMEOUT_BEACONS * heartbeat_interval
        self.reconnect_max_backoff = PROBE_BACKOFF_BEACONS * heartbeat_interval
        self.detector = FailureDetector(
            lambda: self.sim.now,
            suspect_after=self.heartbeat_timeout / 2.0,
            down_after=self.heartbeat_timeout,
            revive=HEALING,
        )
        self.forwarding_budget = forwarding_budget
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.peer_capacity = {}    # peer -> {"analyzers": n, "outstanding": n}
        #: Optional zero-arg callable returning this site's scorecard
        #: state ("green"/"degraded"/"red"); when set, beacons advertise
        #: it and peers collect the states in :attr:`peer_health` -- the
        #: federation leg of the health layer's scorecard aggregation.
        self.health_supplier = None
        self.peer_health = {}      # peer -> last advertised health state
        self._probe_interval = {}  # peer -> current backoff (read while partitioned)
        self._next_probe_at = {}   # peer -> next probe time
        self._pending_forwards = {}  # job_id -> {"peer", "span", "sent_at"}
        self._remote_jobs = {}     # job_id -> origin bookkeeping
        self._analyzer_rr = 0
        self.jobs_forwarded = 0
        self.results_delivered = 0
        self.duplicate_results = 0
        self.forwards_expired = 0
        self.jobs_accepted = 0
        self.jobs_rejected = 0
        self.results_returned = 0
        self.beacons_sent = 0
        self.beacons_received = 0
        self.probes_sent = 0

    def setup(self):
        gateway = self
        for peer in sorted(self.peer_gateways):
            self.detector.heard(peer)

        class Beat(TickerBehaviour):
            def on_tick(self):
                gateway._tick()
                return
                yield  # pragma: no cover

        class Detector(TickerBehaviour):
            def on_tick(self):
                gateway._check_peers()
                return
                yield  # pragma: no cover

        class Beacons(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology=SITE_HEARTBEAT.name,
                ))
                if message is not None:
                    gateway._on_beacon(message)

        class ForwardedJobs(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.REQUEST,
                    ontology=FORWARDED_JOB.name,
                ))
                if message is not None:
                    gateway._on_forwarded_job(message)

        class AnalyzerResults(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology=ANALYSIS_RESULT.name,
                ))
                if message is not None:
                    gateway._on_local_result(message)

        class ForwardedResults(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology=FORWARDED_RESULT.name,
                ))
                if message is not None:
                    gateway._on_forwarded_result(message)

        self.add_behaviour(Beat(period=self.heartbeat_interval, name="beat"))
        # The detector samples well inside the timeout so detection
        # latency stays bounded by the timeout itself, not by a coarse
        # polling grid on top of it.
        self.add_behaviour(Detector(
            period=max(0.25, self.heartbeat_timeout / 8.0), name="detector"))
        self.add_behaviour(Beacons("beacons"))
        self.add_behaviour(ForwardedJobs("forwarded-jobs"))
        self.add_behaviour(AnalyzerResults("analyzer-results"))
        self.add_behaviour(ForwardedResults("forwarded-results"))

    # -- heartbeats and link state -----------------------------------------

    @property
    def link_state(self):
        """``{peer: "up" | "suspect" | "partitioned" | "healing"}``."""
        return {peer: _LINK_STATES[self.detector.status(peer)]
                for peer in self.peer_gateways}

    @property
    def partitions(self):
        return self.detector.downs      # [(peer, declared_at)]

    @property
    def heals(self):
        return self.detector.recoveries  # [(peer, healed_at)]

    def _send_beacon(self, peer, probe=False):
        content_kwargs = dict(
            site=self.site,
            sent_at=self.sim.now,
            analyzers=len(self.root._analyzer_agent_by_container),
            outstanding=sum(
                self.root._outstanding_by_container.values()),
        )
        if probe:
            content_kwargs["probe"] = True
        if self.health_supplier is not None:
            content_kwargs["health"] = self.health_supplier()
        # Plain (unreliable) send on purpose: retransmission would mask
        # the very silence the failure detector listens for.
        self.send(ACLMessage(
            Performative.INFORM,
            sender=self.name,
            receiver=self.peer_gateways[peer],
            content=SITE_HEARTBEAT.make(**content_kwargs),
            ontology=SITE_HEARTBEAT.name,
            size_units=0.2,
        ))
        self.beacons_sent += 1
        if probe:
            self.probes_sent += 1

    def _tick(self):
        self._expire_forwards()
        now = self.sim.now
        for peer in sorted(self.peer_gateways):
            if self.detector.status(peer) != DOWN:
                self._send_beacon(peer)
            elif now >= self._next_probe_at[peer]:
                self._send_beacon(peer, probe=True)
                interval = min(self._probe_interval[peer] * 2.0,
                               self.reconnect_max_backoff)
                self._probe_interval[peer] = interval
                self._next_probe_at[peer] = now + interval

    def _check_peers(self):
        # A partitioned peer is probed at backoff, not timed out again.
        for peer, _, status in self.detector.sweep():
            if status == DOWN:
                self._probe_interval[peer] = self.heartbeat_interval
                self._next_probe_at[peer] = self.sim.now
                self._announce_link(peer, partitioned=True)

    def _on_beacon(self, message):
        content = SITE_HEARTBEAT.validate(message.content)
        peer = content["site"]
        if peer not in self.peer_gateways:
            return
        self.beacons_received += 1
        self.peer_capacity[peer] = {
            "analyzers": content["analyzers"],
            "outstanding": content["outstanding"],
        }
        if "health" in content:
            self.peer_health[peer] = content["health"]
        # A partitioned peer's first sign of life is not trusted yet: it
        # heals, and one more beacon confirms the link before the peer's
        # devices come back.
        if self.detector.heard(peer) == (peer, HEALING, ALIVE):
            self._announce_link(peer, partitioned=False)
        if content.get("probe"):
            # Answer probes immediately so both sides reconverge within
            # a beacon round trip instead of a full heartbeat interval.
            self._send_beacon(peer)

    def _announce_link(self, peer, partitioned):
        """Tell the local interface that a peer's link went down (its
        devices offline, a major finding) or healed (back online)."""
        devices = self.devices_by_site.get(peer, [])
        self.send(ACLMessage(
            Performative.INFORM,
            sender=self.name,
            receiver=self.interface_name,
            content=SITE_STATUS.make(
                site=peer, status="partitioned" if partitioned else "online",
                devices=list(devices), at=self.sim.now,
            ),
            ontology=SITE_STATUS.name,
            size_units=0.2,
        ))
        finding = Finding(
            kind="site-partition" if partitioned else "site-partition-heal",
            severity="major" if partitioned else "info",
            device="",
            site=peer,
            detail={
                "devices": list(devices),
                "status": "offline" if partitioned else "online",
                "detected_by": self.site,
            },
        )
        report = ManagementReport(
            report_id=self.sim.next_id("report"),
            dataset_id="link-%s-%s" % (self.site, peer),
            findings=[finding],
            records_analyzed=0,
            generated_at=self.sim.now,
            kind="link-state",
        )
        self.send(ACLMessage(
            Performative.INFORM,
            sender=self.name,
            receiver=self.interface_name,
            content={"report": report},
            ontology="management-report",
            size_units=self.cost_model.notify_size,
        ))

    # -- outbound forwarding (this site saturated) -----------------------

    def _expire_forwards(self):
        """Reclaim forwarding budget from jobs the peer never answered.

        The origin root's Reaper re-dispatches the job itself (under a
        new job id, so a late remote result drops as a duplicate); this
        only stops a dead peer from pinning budget forever.
        """
        ttl = 2.0 * self.root.job_timeout
        now = self.sim.now
        for job_id in [
            job_id for job_id, entry in self._pending_forwards.items()
            if now - entry["sent_at"] > ttl
        ]:
            entry = self._pending_forwards.pop(job_id)
            self.forwards_expired += 1
            span = entry.get("span")
            if span is not None:
                self.telemetry.recorder.end(span, status="expired")

    def try_forward(self, job_content, span=None):
        """Offer a job to the idlest reachable peer; None when none fits.

        Installed as ``ProcessorRootAgent.forwarder``; called only when
        the local grid is saturated.  A peer qualifies when its link is
        fully up, it has advertised capacity, and fewer than
        ``forwarding_budget`` of our forwards are still in flight there.
        """
        self._expire_forwards()
        pending_by_peer = {}
        for entry in self._pending_forwards.values():
            pending_by_peer[entry["peer"]] = (
                pending_by_peer.get(entry["peer"], 0) + 1)
        best = None
        best_idle = 0
        for peer in sorted(self.peer_gateways):
            if self.detector.status(peer) != ALIVE:
                continue
            capacity = self.peer_capacity.get(peer)
            if capacity is None:
                continue
            pending = pending_by_peer.get(peer, 0)
            if pending >= self.forwarding_budget:
                continue
            idle = capacity["analyzers"] - capacity["outstanding"] - pending
            if idle > best_idle:
                best, best_idle = peer, idle
        if best is None:
            return None
        message = ACLMessage(
            Performative.REQUEST,
            sender=self.name,
            receiver=self.peer_gateways[best],
            content=FORWARDED_JOB.make(
                job=dict(job_content),
                origin_site=self.site,
                origin_gateway=self.name,
                forward_hops=1,
            ),
            ontology=FORWARDED_JOB.name,
            size_units=self.cost_model.notify_size,
        )
        forward_span = None
        telemetry = self.telemetry
        if telemetry is not None and span is not None:
            forward_span = telemetry.recorder.start(
                "forward", span.trace_id, parent=span.span_id,
                grid="federation", host=self.host.name, agent=self.name,
                job_id=job_content["job_id"], peer=best,
            )
            message.trace_context = (
                forward_span.trace_id, forward_span.span_id)
        self._pending_forwards[job_content["job_id"]] = {
            "peer": best, "span": forward_span, "sent_at": self.sim.now,
        }
        self.jobs_forwarded += 1
        self.send_reliable(message)
        return best

    def _on_forwarded_result(self, message):
        content = FORWARDED_RESULT.validate(message.content)
        result = dict(content["result"])
        entry = self._pending_forwards.pop(result.get("job_id"), None)
        if entry is None:
            self.duplicate_results += 1
            return
        self.results_delivered += 1
        span = entry.get("span")
        if span is not None:
            self.telemetry.recorder.end(
                span, executed_by=content["executed_by"])
        # Re-emit as a plain analyzer result: the root completes the job
        # exactly as if a local container had run it.
        self.send_reliable(ACLMessage(
            Performative.INFORM,
            sender=self.name,
            receiver=self.root.name,
            content=result,
            ontology=ANALYSIS_RESULT.name,
            size_units=self.cost_model.notify_size,
        ))

    # -- inbound forwarding (a peer site saturated) ----------------------

    def _on_forwarded_job(self, message):
        content = FORWARDED_JOB.validate(message.content)
        analyzers = sorted(self.root._analyzer_agent_by_container.values())
        if content["forward_hops"] > 1 or not analyzers:
            self.jobs_rejected += 1
            return
        job = dict(content["job"])
        job_id = job.get("job_id")
        if job_id in self._remote_jobs:
            return  # redelivered duplicate; the first copy is running
        self._remote_jobs[job_id] = {
            "origin_site": content["origin_site"],
            "origin_gateway": content["origin_gateway"],
            "trace": message.trace_context,
        }
        self.jobs_accepted += 1
        # Dispatch straight to an analyzer, never through the local root:
        # a forwarded job must not be forwarded again (no ping-pong), and
        # the analyzer replies to its requester -- us.
        agent_name = analyzers[self._analyzer_rr % len(analyzers)]
        self._analyzer_rr += 1
        request = ACLMessage(
            Performative.REQUEST,
            sender=self.name,
            receiver=agent_name,
            content=job,
            ontology=ANALYSIS_JOB.name,
            size_units=self.cost_model.notify_size,
        )
        request.trace_context = message.trace_context
        self.send(request)

    def _on_local_result(self, message):
        content = ANALYSIS_RESULT.validate(message.content)
        entry = self._remote_jobs.pop(content["job_id"], None)
        if entry is None:
            return
        self.results_returned += 1
        reply = ACLMessage(
            Performative.INFORM,
            sender=self.name,
            receiver=entry["origin_gateway"],
            content=FORWARDED_RESULT.make(
                result=dict(content),
                origin_site=entry["origin_site"],
                executed_by=str(message.sender),
            ),
            ontology=FORWARDED_RESULT.name,
            size_units=self.cost_model.notify_size,
        )
        reply.trace_context = entry["trace"]
        self.send_reliable(reply)

    def stats(self):
        return {
            "jobs_forwarded": self.jobs_forwarded,
            "results_delivered": self.results_delivered,
            "duplicate_results": self.duplicate_results,
            "forwards_expired": self.forwards_expired,
            "jobs_accepted": self.jobs_accepted,
            "jobs_rejected": self.jobs_rejected,
            "results_returned": self.results_returned,
            "beacons_sent": self.beacons_sent,
            "beacons_received": self.beacons_received,
            "probes_sent": self.probes_sent,
            "partitions_declared": len(self.partitions),
            "heals_declared": len(self.heals),
        }

    def __repr__(self):
        return "SiteGatewayAgent(%r, peers=%d)" % (
            self.name, len(self.peer_gateways))


class FederatedManagementSystem:
    """A built multi-site deployment (integrated, siloed or mesh).

    ``sites[name]`` is that site's
    :class:`~repro.core.system.GridManagementSystem`; in mesh mode its
    ``gateway`` is the site's :class:`SiteGatewayAgent` (``None``
    otherwise).
    """

    def __init__(self, spec):
        self.spec = spec
        self.cost_model = spec.cost_model
        self.fabric = Fabric(spec.seed, spec.wan, spec.federation_reliability,
                             spec.telemetry)
        self.sim = self.fabric.sim
        self.network = self.fabric.network
        self.transport = self.fabric.transport
        self.telemetry = self.fabric.telemetry
        self.reliable_channel = self.fabric.reliable_channel
        self.platform = self.fabric.platform
        self.sites = {}
        self.devices = {}
        self.global_root = self.global_interface = None
        processor = None
        for site in spec.sites:
            grid = GridManagementSystem(
                self._grid_spec(site), fabric=self.fabric, processor=processor)
            grid.gateway = None
            if spec.mode == INTEGRATED and processor is None:
                # Site 1's grid is the processing grid every site feeds.
                processor = grid
                grid.root.cross_window = spec.cross_window
                self.global_root = grid.root
                self.global_interface = grid.interface
            self.sites[site.name] = grid
            self.devices.update(grid.devices)
        if spec.mode == MESH:
            self._build_gateways()

    # -- construction -----------------------------------------------------

    def _grid_spec(self, site):
        """The :class:`GridTopologySpec` one site's grid is built from."""
        spec = self.spec
        name = site.name
        interface = (
            "noc-interface" if spec.mode == INTEGRATED else name + "-interface")
        return GridTopologySpec(
            devices=site.devices,
            collector_hosts=[
                HostSpec("%s-collector%d" % (name, index + 1), name)
                for index in range(site.collector_count)
            ],
            analysis_hosts=[
                HostSpec("%s-analysis%d" % (name, index + 1), name)
                for index in range(site.analyzer_count)
            ],
            storage_host=HostSpec(name + "-storage", name),
            interface_host=HostSpec(interface, name),
            policy=spec.policy,
            dataset_threshold=spec.dataset_threshold,
            cost_model=spec.cost_model,
            seed=spec.seed,
            knowledge_base_factory=spec.knowledge_base_factory,
            job_timeout=spec.job_timeout,
            wan=spec.wan,
            reliability=spec.federation_reliability,
            telemetry=spec.telemetry,
            **site.grid_options
        )

    def _build_gateways(self):
        """Mesh mode: one gateway per site, wired into the local root."""
        spec = self.spec
        gateway_names = {
            site_name: "gateway@" + site_name for site_name in self.sites
        }
        devices_by_site = {
            site_name: sorted(grid.devices)
            for site_name, grid in self.sites.items()
        }
        for site_name, grid in self.sites.items():
            peers = {
                peer: name for peer, name in gateway_names.items()
                if peer != site_name
            }
            gateway = SiteGatewayAgent(
                gateway_names[site_name],
                site=site_name,
                interface_name=grid.interface.name,
                root=grid.root,
                peer_gateways=peers,
                devices_by_site=devices_by_site,
                heartbeat_interval=spec.heartbeat_interval,
                forwarding_budget=spec.forwarding_budget,
                cost_model=self.cost_model,
            )
            grid.storage_container.deploy(gateway)
            grid.gateway = gateway
            # Saturation overflow drains through the gateway.
            grid.root.forwarder = gateway.try_forward
            grid.root.forward_threshold = spec.forward_threshold
            if self.telemetry is not None:
                self.telemetry.register_source(
                    gateway.stats, grid="federation", host=gateway.host.name,
                    agent=gateway.name,
                )

    # -- workload -----------------------------------------------------------

    def assign_site_goals(self, goals_by_site):
        """Distribute per-site goal lists over each site's collectors."""
        for site_name, goals in goals_by_site.items():
            self.sites[site_name].assign_goals(goals)

    def make_site_goals(self, polls_per_type=4, interval=1.0, stagger=0.1):
        """Paper-style goals for every site (each polls its own devices)."""
        return {
            site_name: grid.make_paper_goals(polls_per_type, interval, stagger)
            for site_name, grid in self.sites.items()
        }

    # -- running / reporting --------------------------------------------------

    def interfaces(self):
        """Every distinct interface (integrated sites share site 1's)."""
        return list(dict.fromkeys(
            grid.interface for grid in self.sites.values()))

    def gateways(self):
        return [
            grid.gateway for grid in self.sites.values()
            if grid.gateway is not None
        ]

    def link_state_report(self):
        """Per-site view of the mesh: ``{site: {peer: link_state}}``."""
        return {
            site_name: dict(grid.gateway.link_state)
            for site_name, grid in self.sites.items()
            if grid.gateway is not None
        }

    # -- health scorecards (mesh mode) ------------------------------------

    def site_scorecard(self, site_name):
        """One site's green/degraded/red state from its own containers.

        A severed link degrades the observing site too: a gateway that
        has declared a peer partitioned is operating without that peer's
        capacity, which is a degradation even when every local container
        is green.
        """
        from repro.core.health import (
            DEGRADED, GREEN, container_scorecard, worst_state)

        grid = self.sites[site_name]
        states = []
        for container in self.platform.containers.values():
            if container.host.site.name != site_name:
                continue
            card = container_scorecard(
                container, root=grid.root,
                channel=self.reliable_channel)
            states.append(card["state"])
        state = worst_state(states) if states else GREEN
        gateway = grid.gateway
        if gateway is not None and state == GREEN and any(
                link in (LINK_PARTITIONED, LINK_HEALING)
                for link in gateway.link_state.values()):
            state = DEGRADED
        return state

    def enable_health_ads(self):
        """Make every gateway advertise its site scorecard on beacons.

        Peers collect the advertised states in ``gateway.peer_health``;
        :meth:`mesh_health_report` merges both views.  Opt-in (off by
        default) because the extra beacon field is visible to ontology
        validation and message accounting.
        """
        for site_name, grid in self.sites.items():
            if grid.gateway is None:
                continue
            grid.gateway.health_supplier = (
                lambda site=site_name: self.site_scorecard(site))

    def mesh_health_report(self):
        """``{site: {"self": state, "peers": {observer: advertised}}}``.

        ``self`` is the site's own scorecard right now; ``peers`` maps
        each observing site to the state it last heard advertised --
        stale during a partition, which is exactly the point: the mesh's
        view of a severed site freezes at the last beacon.
        """
        report = {}
        for site_name in self.sites:
            observed = {}
            for observer, grid in self.sites.items():
                if observer == site_name or grid.gateway is None:
                    continue
                state = grid.gateway.peer_health.get(site_name)
                if state is not None:
                    observed[observer] = state
            report[site_name] = {
                "self": self.site_scorecard(site_name),
                "peers": observed,
            }
        return report

    def forwarding_report(self):
        """Mesh-wide forwarding counters, summed over all gateways."""
        totals = {}
        for gateway in self.gateways():
            for key, value in gateway.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def records_shipped(self):
        return sum(
            collector.records_shipped
            for grid in self.sites.values()
            for collector in grid.collectors
        )

    def records_classified(self):
        return sum(
            classifier.records_classified
            for grid in self.sites.values()
            for classifier in grid.classifiers
        )

    def all_findings(self):
        findings = []
        for interface in self.interfaces():
            findings.extend(interface.all_findings())
        return findings

    def records_analyzed(self):
        return sum(
            report.records_analyzed
            for interface in self.interfaces()
            for report in interface.reports
        )

    def run_until_records(self, total, timeout=2000.0, settle=1.0):
        return self.fabric.run_until(
            lambda: self.records_analyzed() >= total, timeout, settle)

    def utilization_report(self, label=None):
        """Every site's management hosts: the site grids share one
        network, so any one of them walks it all."""
        grid = next(iter(self.sites.values()))
        return grid.utilization_report(
            label if label is not None else self.spec.mode)

    def share_knowledge(self, rule):
        """Teach a rule to analyzers (the paper's "shared knowledge").

        In integrated mode the rule reaches every site's analyzers through
        the single interface grid; in siloed mode it can only reach the
        analyzers of the site whose interface learned it (the first site),
        mirroring the baseline's isolation.
        """
        if self.spec.mode == INTEGRATED:
            names = [a.name for g in self.sites.values() for a in g.analyzers]
            return self.global_interface.submit_rule(rule, names)
        grid = self.sites[min(self.sites)]
        return grid.interface.submit_rule(
            rule, [analyzer.name for analyzer in grid.analyzers])

    def __repr__(self):
        return "FederatedManagementSystem(%s, sites=%d)" % (
            self.spec.mode, len(self.sites))
