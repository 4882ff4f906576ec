"""Multi-site federation: the paper's Site I / Site II deployment.

Figure 2 of the paper spans two sites, each with its own collector and
classifier grids, feeding a shared processing grid whose knowledge base is
fed back from both; Figure 5's baseline is the same hardware *without*
integration ("there's no relation among different sites [...] no high
level analysis can be carried out [...] The only possible evolution of
this system would be the integration of knowledge bases").

Three federation modes realize the comparison:

* ``"integrated"`` -- one grid root brokering analyzers across all sites,
  one interface grid, and a cross-analysis window so problems from
  different sites' datasets correlate (the agent-grid architecture);
* ``"siloed"`` -- an independent root + interface per site; analyzers only
  register locally; no cross-site data ever meets (the Figure 5 baseline);
* ``"mesh"`` -- the siloed per-site structure plus a
  :class:`SiteGatewayAgent` per site forming a partition-tolerant mesh:
  persistent inter-site streams over the reliable channel, a heartbeat
  driven link-state machine (up -> suspect -> partitioned -> healing),
  explicit degradation (a partitioned peer's devices are reported
  offline, never silently stale) and cross-site job forwarding when the
  local processor grid saturates.

All modes share the simulator, WAN topology, devices and workload, so any
difference in findings or utilization is due to the architecture alone.
Reliability, telemetry and the mesh machinery are opt-in; with every knob
at its default the build is byte-identical with the historical
integrated/siloed reproduction.
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
from repro.agents.platform import AgentPlatform
from repro.core.classifier import ClassifierAgent
from repro.core.collector import CollectorAgent
from repro.core.costs import DEFAULT_COST_MODEL
from repro.core.interface import InterfaceAgent
from repro.core.loadbalance import make_policy
from repro.core.processor import AnalyzerAgent, ProcessorRootAgent
from repro.core.reports import Finding, ManagementReport
from repro.core.storage import ManagementDataStore, StorageAgent
from repro.core.system import DeviceSpec, HostSpec
from repro.network.topology import Network
from repro.network.transport import Transport
from repro.rules.stdlib import standard_knowledge_base
from repro.simkernel.simulator import Simulator
from repro.snmp.device import ManagedDevice
from repro.snmp.engine import SnmpEngine

INTEGRATED = "integrated"
SILOED = "siloed"
MESH = "mesh"

#: Link states a gateway tracks per peer site.
LINK_UP = "up"
LINK_SUSPECT = "suspect"
LINK_PARTITIONED = "partitioned"
LINK_HEALING = "healing"


class SiteSpec:
    """One site's slice of the federation."""

    def __init__(self, name, devices, collector_count=1, analyzer_count=1):
        if not devices:
            raise ValueError("site %r needs at least one device" % name)
        self.name = name
        self.devices = list(devices)
        self.collector_count = collector_count
        self.analyzer_count = analyzer_count

    @classmethod
    def simple(cls, name, device_count=2, collector_count=1,
               analyzer_count=1):
        profiles = ("server", "router")
        devices = [
            DeviceSpec("%s-dev%d" % (name, index + 1),
                       profiles[index % len(profiles)], name)
            for index in range(device_count)
        ]
        return cls(name, devices, collector_count, analyzer_count)

    def __repr__(self):
        return "SiteSpec(%r, devices=%d)" % (self.name, len(self.devices))


class FederatedTopologySpec:
    """A multi-site deployment description.

    Args:
        sites: list of :class:`SiteSpec`.
        mode: :data:`INTEGRATED`, :data:`SILOED` or :data:`MESH`.
        policy: placement-policy name (integrated root only).
        dataset_threshold: per-classifier dataset size.
        cross_window: how long cross jobs remember other datasets' problems
            (integrated mode; enables multi-site correlation).
        seed / cost_model / wan / job_timeout: as in GridTopologySpec.
        federation_reliability: install a
            :class:`~repro.network.reliable.ReliableChannel` under the
            platform -- ``True`` for defaults, a dict for channel kwargs,
            ``False`` (default) for the historical fire-and-forget build
            (byte-identical inert path).
        telemetry: attach the flight recorder -- ``True``/dict/``False``
            as in ``GridTopologySpec``; trace context then crosses the
            site boundary with forwarded jobs.
        heartbeat_interval: seconds between inter-site gateway beacons
            (mesh mode; defaults to 1.0 when unset there).
        heartbeat_timeout: beacon silence after which a peer is declared
            partitioned (defaults to ``4 * heartbeat_interval``).
        forwarding_budget: max in-flight forwarded jobs per peer site.
        forward_threshold: per-container outstanding-job count at which
            the local grid counts as saturated (see
            ``ProcessorRootAgent.forward_threshold``).
        reconnect_max_backoff: cap on the probe backoff toward a
            partitioned peer (defaults to ``8 * heartbeat_interval``).
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
        heartbeat_timeout=None,
        forwarding_budget=4,
        forward_threshold=2,
        reconnect_max_backoff=None,
    ):
        if len(sites) < 1:
            raise ValueError("at least one site is required")
        if mode not in (INTEGRATED, SILOED, MESH):
            raise ValueError("unknown federation mode %r" % mode)
        if mode == MESH and len(sites) < 2:
            raise ValueError("mesh mode needs at least two sites")
        self.sites = list(sites)
        self.mode = mode
        self.policy = policy
        self.dataset_threshold = dataset_threshold
        self.cross_window = cross_window
        self.seed = seed
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.wan = wan
        self.job_timeout = job_timeout
        self.knowledge_base_factory = (
            knowledge_base_factory if knowledge_base_factory is not None
            else standard_knowledge_base
        )
        self.federation_reliability = federation_reliability
        self.telemetry = telemetry
        if heartbeat_interval is None and mode == MESH:
            heartbeat_interval = 1.0
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.heartbeat_interval = heartbeat_interval
        if heartbeat_timeout is None and heartbeat_interval is not None:
            heartbeat_timeout = 4.0 * heartbeat_interval
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        self.heartbeat_timeout = heartbeat_timeout
        if forwarding_budget < 1:
            raise ValueError("forwarding_budget must be >= 1")
        self.forwarding_budget = forwarding_budget
        if forward_threshold < 1:
            raise ValueError("forward_threshold must be >= 1")
        self.forward_threshold = forward_threshold
        if reconnect_max_backoff is None and heartbeat_interval is not None:
            reconnect_max_backoff = 8.0 * heartbeat_interval
        if reconnect_max_backoff is not None and heartbeat_interval is not None \
                and reconnect_max_backoff < heartbeat_interval:
            raise ValueError(
                "reconnect_max_backoff must be >= heartbeat_interval")
        self.reconnect_max_backoff = reconnect_max_backoff

    def total_devices(self):
        return sum(len(site.devices) for site in self.sites)

    def __repr__(self):
        return "FederatedTopologySpec(%s, sites=%d)" % (self.mode, len(self.sites))


class _SiteRuntime:
    """Everything built for one site."""

    def __init__(self, name):
        self.name = name
        self.devices = {}
        self.collectors = []
        self.analyzers = []
        self.store = None
        self.storage_agent = None
        self.classifier = None
        self.root = None               # siloed / mesh modes only
        self.interface = None          # siloed / mesh modes only
        self.storage_container = None  # mesh gateways co-locate here
        self.gateway = None            # mesh mode only


class SiteGatewayAgent(Agent):
    """One site's endpoint in the partition-tolerant federation mesh.

    Each gateway maintains a link-state machine per peer site, driven by
    inter-site heartbeats::

        up --silence > timeout/2--> suspect --silence > timeout--> partitioned
        partitioned --beacon--> healing --beacon--> up

    While a peer is partitioned the gateway probes it at a doubling
    backoff capped at ``reconnect_max_backoff`` and tells the local
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
                 heartbeat_timeout=None, forwarding_budget=4,
                 reconnect_max_backoff=None, cost_model=None):
        super().__init__(name)
        self.site = site
        self.interface_name = interface_name
        self.root = root
        self.peer_gateways = dict(peer_gateways)   # peer site -> gateway name
        self.devices_by_site = {
            peer: list(devices) for peer, devices in devices_by_site.items()
        }
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else 4.0 * heartbeat_interval
        )
        self.reconnect_max_backoff = (
            reconnect_max_backoff if reconnect_max_backoff is not None
            else 8.0 * heartbeat_interval
        )
        self.forwarding_budget = forwarding_budget
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.link_state = {peer: LINK_UP for peer in self.peer_gateways}
        self._last_heard = {}      # peer -> sim time of last beacon
        self.peer_capacity = {}    # peer -> {"analyzers": n, "outstanding": n}
        #: Optional zero-arg callable returning this site's scorecard
        #: state ("green"/"degraded"/"red"); when set, beacons advertise
        #: it and peers collect the states in :attr:`peer_health` -- the
        #: federation leg of the health layer's scorecard aggregation.
        self.health_supplier = None
        self.peer_health = {}      # peer -> last advertised health state
        self._probe_interval = {}  # peer -> current backoff (partitioned only)
        self._next_probe_at = {}   # peer -> next probe time
        self.partitions = []       # (peer, declared_at)
        self.heals = []            # (peer, healed_at)
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
        for peer in self.peer_gateways:
            self._last_heard[peer] = self.sim.now

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

    # -- heartbeats and the link-state machine ---------------------------

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
            if self.link_state[peer] != LINK_PARTITIONED:
                self._send_beacon(peer)
            elif now >= self._next_probe_at.get(peer, 0.0):
                self._send_beacon(peer, probe=True)
                interval = min(
                    self._probe_interval.get(
                        peer, self.heartbeat_interval) * 2.0,
                    self.reconnect_max_backoff,
                )
                self._probe_interval[peer] = interval
                self._next_probe_at[peer] = now + interval

    def _check_peers(self):
        now = self.sim.now
        for peer in sorted(self.peer_gateways):
            state = self.link_state[peer]
            if state == LINK_PARTITIONED:
                continue  # probed at backoff, not timed out again
            silence = now - self._last_heard[peer]
            if silence > self.heartbeat_timeout:
                self._declare_partition(peer)
            elif state == LINK_UP and silence > self.heartbeat_timeout / 2.0:
                self.link_state[peer] = LINK_SUSPECT

    def _on_beacon(self, message):
        content = SITE_HEARTBEAT.validate(message.content)
        peer = content["site"]
        if peer not in self.peer_gateways:
            return
        self.beacons_received += 1
        self._last_heard[peer] = self.sim.now
        self.peer_capacity[peer] = {
            "analyzers": content["analyzers"],
            "outstanding": content["outstanding"],
        }
        if "health" in content:
            self.peer_health[peer] = content["health"]
        state = self.link_state[peer]
        if state == LINK_PARTITIONED:
            # First sign of life: not trusted yet -- one more beacon
            # confirms the link before the peer's devices come back.
            self.link_state[peer] = LINK_HEALING
            self._probe_interval.pop(peer, None)
            self._next_probe_at.pop(peer, None)
        elif state == LINK_HEALING:
            self._declare_heal(peer)
        elif state == LINK_SUSPECT:
            self.link_state[peer] = LINK_UP
        if content.get("probe"):
            # Answer probes immediately so both sides reconverge within
            # a beacon round trip instead of a full heartbeat interval.
            self._send_beacon(peer)

    def _declare_partition(self, peer):
        self.link_state[peer] = LINK_PARTITIONED
        self.partitions.append((peer, self.sim.now))
        self._probe_interval[peer] = self.heartbeat_interval
        self._next_probe_at[peer] = self.sim.now
        devices = self.devices_by_site.get(peer, [])
        self._notify_interface(peer, "partitioned", devices)
        self._ship_link_report(peer, Finding(
            kind="site-partition",
            severity="major",
            device="",
            site=peer,
            detail={
                "devices": list(devices),
                "status": "offline",
                "detected_by": self.site,
            },
        ))

    def _declare_heal(self, peer):
        self.link_state[peer] = LINK_UP
        self.heals.append((peer, self.sim.now))
        devices = self.devices_by_site.get(peer, [])
        self._notify_interface(peer, "online", devices)
        self._ship_link_report(peer, Finding(
            kind="site-partition-heal",
            severity="info",
            device="",
            site=peer,
            detail={
                "devices": list(devices),
                "status": "online",
                "detected_by": self.site,
            },
        ))

    def _notify_interface(self, peer, status, devices):
        self.send(ACLMessage(
            Performative.INFORM,
            sender=self.name,
            receiver=self.interface_name,
            content=SITE_STATUS.make(
                site=peer, status=status, devices=list(devices),
                at=self.sim.now,
            ),
            ontology=SITE_STATUS.name,
            size_units=0.2,
        ))

    def _ship_link_report(self, peer, finding):
        report = ManagementReport(
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
            if self.link_state[peer] != LINK_UP:
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
    """A built multi-site deployment (integrated, siloed or mesh)."""

    def __init__(self, spec):
        self.spec = spec
        self.cost_model = spec.cost_model
        self.sim = Simulator(seed=spec.seed)
        self.network = Network(self.sim, wan=spec.wan)
        self.transport = Transport(self.network)
        self.telemetry = None
        if spec.telemetry:
            from repro.simkernel.telemetry import Telemetry

            telemetry_kwargs = (
                dict(spec.telemetry) if isinstance(spec.telemetry, dict)
                else {}
            )
            self.telemetry = Telemetry(self.sim, **telemetry_kwargs)
        self.reliable_channel = None
        if spec.federation_reliability:
            from repro.network.reliable import ReliableChannel

            channel_kwargs = (
                dict(spec.federation_reliability)
                if isinstance(spec.federation_reliability, dict)
                else {}
            )
            if self.telemetry is not None:
                channel_kwargs.setdefault("metrics", self.telemetry.registry)
                channel_kwargs.setdefault(
                    "metric_labels", {"grid": "federation"})
            self.reliable_channel = ReliableChannel(
                self.transport, **channel_kwargs)
        self.platform = AgentPlatform(
            self.sim, self.network, self.transport,
            reliable_channel=self.reliable_channel,
            telemetry=self.telemetry,
        )
        self.sites = {}
        self.devices = {}
        self.global_root = None
        self.global_interface = None
        if spec.mode == INTEGRATED:
            self._build_integrated()
        else:
            # mesh is the siloed per-site structure plus gateways
            self._build_siloed()
        if spec.mode == MESH:
            self._build_gateways()
        if self.telemetry is not None:
            self._wire_federation_telemetry()

    # -- construction -----------------------------------------------------

    def _build_devices(self, site_spec, runtime):
        for device_spec in site_spec.devices:
            host = self.network.add_host(
                device_spec.name, site_spec.name, role="device")
            device = ManagedDevice(self.sim, host, profile=device_spec.profile)
            SnmpEngine(device, self.transport)
            runtime.devices[device_spec.name] = device
            self.devices[device_spec.name] = device

    def _build_site_storage(self, site_spec, runtime, root_name):
        host = self.network.add_host(
            "%s-storage" % site_spec.name, site_spec.name, role="storage")
        container = self.platform.create_container(
            "%s-storage-container" % site_spec.name, host,
            services=("storage", "classification"))
        runtime.store = ManagementDataStore(host, self.cost_model)
        runtime.storage_agent = StorageAgent(
            "storage@" + host.name, runtime.store)
        container.deploy(runtime.storage_agent)
        runtime.classifier = ClassifierAgent(
            "classifier@" + site_spec.name,
            store=runtime.store,
            processor_name=root_name,
            cost_model=self.cost_model,
            dataset_threshold=self.spec.dataset_threshold,
        )
        container.deploy(runtime.classifier)
        return container

    def _build_site_collectors(self, site_spec, runtime):
        device_specs = {
            name: (device.profile.interface_count,
                   device.profile.process_slots)
            for name, device in runtime.devices.items()
        }
        for index in range(site_spec.collector_count):
            host = self.network.add_host(
                "%s-collector%d" % (site_spec.name, index + 1),
                site_spec.name, role="collector")
            container = self.platform.create_container(
                "%s-collector-%d" % (site_spec.name, index + 1), host,
                services=("collection",))
            collector = CollectorAgent(
                "collector%d@%s" % (index + 1, site_spec.name),
                goals=[],
                classifier_name=runtime.classifier.name,
                cost_model=self.cost_model,
                device_specs=device_specs,
            )
            container.deploy(collector)
            runtime.collectors.append(collector)

    def _build_site_analyzers(self, site_spec, runtime, root_name):
        for index in range(site_spec.analyzer_count):
            host = self.network.add_host(
                "%s-analysis%d" % (site_spec.name, index + 1),
                site_spec.name, role="analysis")
            container = self.platform.create_container(
                "%s-analysis-%d" % (site_spec.name, index + 1), host,
                services=("analysis",))
            analyzer = AnalyzerAgent(
                "analyzer%d@%s" % (index + 1, site_spec.name),
                root_name=root_name,
                knowledge_base=self.spec.knowledge_base_factory(),
                cost_model=self.cost_model,
            )
            container.deploy(analyzer)
            runtime.analyzers.append(analyzer)

    def _build_integrated(self):
        first_site = self.spec.sites[0]
        interface_host = self.network.add_host(
            "noc-interface", first_site.name, role="interface")
        interface_container = self.platform.create_container(
            "noc-interface-container", interface_host, services=("interface",))
        self.global_interface = InterfaceAgent("interface@noc")
        interface_container.deploy(self.global_interface)

        root_name = "pg-root@noc"
        for site_spec in self.spec.sites:
            runtime = _SiteRuntime(site_spec.name)
            self.sites[site_spec.name] = runtime
            self._build_devices(site_spec, runtime)
            storage_container = self._build_site_storage(
                site_spec, runtime, root_name)
            if site_spec is first_site:
                # the single root is co-located with the first site's storage
                self.global_root = ProcessorRootAgent(
                    root_name,
                    storage_agent_name=runtime.storage_agent.name,
                    interface_name=self.global_interface.name,
                    policy=make_policy(self.spec.policy),
                    cost_model=self.cost_model,
                    job_timeout=self.spec.job_timeout,
                    cross_window=self.spec.cross_window,
                )
                storage_container.deploy(self.global_root)
            self._build_site_collectors(site_spec, runtime)
            self._build_site_analyzers(site_spec, runtime, root_name)

    def _build_siloed(self):
        for site_spec in self.spec.sites:
            runtime = _SiteRuntime(site_spec.name)
            self.sites[site_spec.name] = runtime
            self._build_devices(site_spec, runtime)
            root_name = "pg-root@" + site_spec.name
            storage_container = self._build_site_storage(
                site_spec, runtime, root_name)
            runtime.storage_container = storage_container
            interface_host = self.network.add_host(
                "%s-interface" % site_spec.name, site_spec.name,
                role="interface")
            interface_container = self.platform.create_container(
                "%s-interface-container" % site_spec.name, interface_host,
                services=("interface",))
            runtime.interface = InterfaceAgent("interface@" + site_spec.name)
            interface_container.deploy(runtime.interface)
            runtime.root = ProcessorRootAgent(
                root_name,
                storage_agent_name=runtime.storage_agent.name,
                interface_name=runtime.interface.name,
                policy=make_policy(self.spec.policy),
                cost_model=self.cost_model,
                job_timeout=self.spec.job_timeout,
            )
            storage_container.deploy(runtime.root)
            self._build_site_collectors(site_spec, runtime)
            self._build_site_analyzers(site_spec, runtime, root_name)

    def _build_gateways(self):
        """Mesh mode: one gateway per site, wired into the local root."""
        spec = self.spec
        gateway_names = {
            site_name: "gateway@" + site_name for site_name in self.sites
        }
        devices_by_site = {
            site_name: sorted(runtime.devices)
            for site_name, runtime in self.sites.items()
        }
        for site_name, runtime in self.sites.items():
            peers = {
                peer: name for peer, name in gateway_names.items()
                if peer != site_name
            }
            gateway = SiteGatewayAgent(
                gateway_names[site_name],
                site=site_name,
                interface_name=runtime.interface.name,
                root=runtime.root,
                peer_gateways=peers,
                devices_by_site=devices_by_site,
                heartbeat_interval=spec.heartbeat_interval,
                heartbeat_timeout=spec.heartbeat_timeout,
                forwarding_budget=spec.forwarding_budget,
                reconnect_max_backoff=spec.reconnect_max_backoff,
                cost_model=self.cost_model,
            )
            runtime.storage_container.deploy(gateway)
            runtime.gateway = gateway
            # Saturation overflow drains through the gateway.
            runtime.root.forwarder = gateway.try_forward
            runtime.root.forward_threshold = spec.forward_threshold

    def _wire_federation_telemetry(self):
        """Register every component as a labelled metric source.

        Same contract as ``GridManagementSystem._wire_telemetry``: the
        reliable channel's span hooks terminate in-flight traces on
        dead-letter, and snapshots unify the per-site grids.
        """
        from repro.simkernel.telemetry import wire_channel_tracing

        if self.reliable_channel is not None:
            wire_channel_tracing(self.telemetry.recorder,
                                 self.reliable_channel)
        telemetry = self.telemetry
        for runtime in self.sites.values():
            for collector in runtime.collectors:
                telemetry.register_source(
                    lambda c=collector: {
                        "polls_completed": c.polls_completed,
                        "polls_failed": c.polls_failed,
                        "records_shipped": c.records_shipped,
                    },
                    grid="collector", host=collector.host.name,
                    agent=collector.name,
                )
            classifier = runtime.classifier
            telemetry.register_source(
                lambda c=classifier: {
                    "records_classified": c.records_classified,
                    "datasets_published": c.datasets_published,
                },
                grid="classifier", host=classifier.host.name,
                agent=classifier.name,
            )
            for analyzer in runtime.analyzers:
                telemetry.register_source(
                    lambda a=analyzer: {
                        "jobs_completed": a.jobs_completed,
                        "records_analyzed": a.records_analyzed,
                        "rules_fired": a.rules_fired,
                    },
                    grid="processor", host=analyzer.host.name,
                    agent=analyzer.name,
                )
        for root in self.roots():
            telemetry.register_source(
                lambda r=root: {
                    "jobs_dispatched": r.jobs_dispatched,
                    "jobs_redispatched": r.jobs_redispatched,
                    "jobs_abandoned": r.jobs_abandoned,
                    "jobs_forwarded": r.jobs_forwarded,
                    "reports_issued": r.reports_issued,
                },
                grid="processor", host=root.host.name, agent=root.name,
            )
        for interface in self.interfaces():
            telemetry.register_source(
                lambda i=interface: {
                    "reports": len(i.reports),
                    "alerts": len(i.alerts),
                },
                grid="interface", host=interface.host.name,
                agent=interface.name,
            )
        for gateway in self.gateways():
            telemetry.register_source(
                gateway.stats, grid="federation", host=gateway.host.name,
                agent=gateway.name,
            )
        telemetry.register_source(self.platform.stats, grid="platform")
        telemetry.register_source(self.transport.stats, grid="network")
        if self.reliable_channel is not None:
            telemetry.register_source(
                self.reliable_channel.stats, grid="network",
                agent="reliable-channel",
            )

    # -- workload -----------------------------------------------------------

    def assign_site_goals(self, goals_by_site):
        """Distribute per-site goal lists over each site's collectors."""
        for site_name, goals in goals_by_site.items():
            runtime = self.sites[site_name]
            for index, goal in enumerate(goals):
                runtime.collectors[
                    index % len(runtime.collectors)].add_goal(goal)

    def make_site_goals(self, polls_per_type=4, interval=1.0, stagger=0.1):
        """Paper-style goals for every site (each polls its own devices)."""
        from repro.core.records import CollectionGoal

        goals_by_site = {}
        for site_name, runtime in self.sites.items():
            device_names = sorted(runtime.devices)
            goals = []
            for type_index, request_type in enumerate(("A", "B", "C")):
                for poll_index in range(polls_per_type):
                    goals.append(CollectionGoal(
                        device_names[poll_index % len(device_names)],
                        request_type,
                        count=1,
                        interval=interval,
                        start_after=stagger * (poll_index * 3 + type_index),
                    ))
            goals_by_site[site_name] = goals
        return goals_by_site

    # -- running / reporting --------------------------------------------------

    def interfaces(self):
        if self.spec.mode == INTEGRATED:
            return [self.global_interface]
        return [runtime.interface for runtime in self.sites.values()]

    def roots(self):
        if self.spec.mode == INTEGRATED:
            return [self.global_root]
        return [runtime.root for runtime in self.sites.values()]

    def gateways(self):
        return [
            runtime.gateway for runtime in self.sites.values()
            if runtime.gateway is not None
        ]

    def link_state_report(self):
        """Per-site view of the mesh: ``{site: {peer: link_state}}``."""
        return {
            site_name: dict(runtime.gateway.link_state)
            for site_name, runtime in self.sites.items()
            if runtime.gateway is not None
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

        runtime = self.sites[site_name]
        now = self.sim.now
        states = []
        for container in self.platform.containers.values():
            if container.host.site.name != site_name:
                continue
            card = container_scorecard(
                container, now, root=runtime.root,
                channel=self.reliable_channel)
            states.append(card["state"])
        state = worst_state(states) if states else GREEN
        gateway = runtime.gateway
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
        for site_name, runtime in self.sites.items():
            if runtime.gateway is None:
                continue
            runtime.gateway.health_supplier = (
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
            for observer, runtime in self.sites.items():
                if observer == site_name or runtime.gateway is None:
                    continue
                state = runtime.gateway.peer_health.get(site_name)
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
            for runtime in self.sites.values()
            for collector in runtime.collectors
        )

    def records_classified(self):
        return sum(
            runtime.classifier.records_classified
            for runtime in self.sites.values()
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
        deadline = self.sim.now + timeout
        while self.records_analyzed() < total and self.sim.now < deadline:
            self.sim.run(until=min(deadline, self.sim.now + 5.0))
        if self.records_analyzed() >= total and settle > 0:
            self.sim.run(until=self.sim.now + settle)
        return self.records_analyzed() >= total

    def management_hosts(self):
        return [
            host for host in self.network.hosts.values()
            if host.role != "device"
        ]

    def utilization_report(self, label=None):
        from repro.evaluation.accounting import UtilizationReport

        return UtilizationReport.from_hosts(
            label if label is not None else self.spec.mode,
            self.management_hosts(), horizon=self.sim.now,
        )

    def share_knowledge(self, rule):
        """Teach a rule to analyzers (the paper's "shared knowledge").

        In integrated mode the rule reaches every site's analyzers through
        the single interface grid; in siloed mode it can only reach the
        analyzers of the site whose interface learned it (the first site),
        mirroring the baseline's isolation.
        """
        if self.spec.mode == INTEGRATED:
            names = [a.name for r in self.sites.values() for a in r.analyzers]
            return self.global_interface.submit_rule(rule, names)
        first = next(iter(sorted(self.sites)))
        runtime = self.sites[first]
        return runtime.interface.submit_rule(
            rule, [analyzer.name for analyzer in runtime.analyzers])

    def __repr__(self):
        return "FederatedManagementSystem(%s, sites=%d)" % (
            self.spec.mode, len(self.sites))
