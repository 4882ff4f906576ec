"""The facade: build and run a full agent-grid management deployment.

:class:`GridTopologySpec` describes a deployment (devices, collector /
analysis / storage / interface hosts, policy, clustering);
:class:`Fabric` is the substrate grids run on (simulator, network,
transport, optional telemetry and reliable channel, agent platform);
:class:`GridManagementSystem` builds SNMP devices and the four grids on a
fabric, wires Figure 2's data flow, and exposes run/report helpers used
by examples, benches, the Figure 6 driver and -- one grid per site --
the multi-site federation (:mod:`repro.core.federation`).
"""

from repro.agents.platform import AgentPlatform
from repro.core.classifier import ClassifierAgent
from repro.core.collector import CollectorAgent
from repro.core.costs import DEFAULT_COST_MODEL
from repro.core.interface import InterfaceAgent
from repro.core.loadbalance import make_policy
from repro.core.processor import AnalyzerAgent, ProcessorRootAgent
from repro.core.records import CollectionGoal
from repro.core.storage import ManagementDataStore, StorageAgent
from repro.network.topology import Network
from repro.network.transport import Transport
from repro.rules.stdlib import standard_knowledge_base
from repro.simkernel.simulator import Simulator
from repro.snmp.device import ManagedDevice, resolve_profile
from repro.snmp.engine import SnmpEngine


class DeviceSpec:
    """One managed device in the deployment."""

    __slots__ = ("name", "profile", "site")

    def __init__(self, name, profile="server", site="site1"):
        try:
            resolve_profile(profile)
        except ValueError as exc:
            raise ValueError("device %r: %s" % (name, exc)) from None
        self.name = name
        self.profile = profile
        self.site = site

    def __repr__(self):
        return "DeviceSpec(%r, %s @ %s)" % (self.name, self.profile, self.site)


class HostSpec:
    """One management host in the deployment."""

    def __init__(self, name, site="site1", cpu_capacity=10.0,
                 disk_capacity=10.0, net_capacity=10.0, knowledge=()):
        self.name = name
        self.site = site
        self.cpu_capacity = cpu_capacity
        self.disk_capacity = disk_capacity
        self.net_capacity = net_capacity
        self.knowledge = tuple(knowledge)

    def __repr__(self):
        return "HostSpec(%r @ %s)" % (self.name, self.site)


class GridTopologySpec:
    """Everything needed to build a grid deployment.

    Args:
        devices: list of :class:`DeviceSpec`.
        collector_hosts / analysis_hosts: lists of :class:`HostSpec`.
        storage_host / interface_host: single :class:`HostSpec` each.
        policy: placement-policy name (see
            :func:`repro.core.loadbalance.make_policy`).
        cluster_strategy: classifier clustering
            ("by-group" / "by-device" / "by-site" or a callable).
        dataset_threshold: records per dataset before the classifier
            notifies the processor grid.
        cost_model: Table 1 :class:`~repro.core.costs.CostModel`.
        seed: master random seed.
        knowledge_base_factory: zero-arg callable producing each analyzer's
            knowledge base (defaults to the stock rule base).
        job_timeout: processor-grid job re-dispatch timeout.
        fetch_timeout: analyzer per-*attempt* base patience for storage
            fetches.  Defaults to ``job_timeout / (2 * (fetch_retries +
            1))`` so the whole retry ladder fits inside half the job
            window; validated so that ``fetch_timeout * (fetch_retries +
            1) < job_timeout`` -- a fetch ladder that outlives the job
            would only ever feed the Reaper.
        fetch_retries: extra fetch attempts per query after a timeout
            (default 2).
        enable_cross: run level-3 cross analysis per dataset.
        reliability: ``False`` (default) keeps the plain transport;
            ``True`` installs a :class:`~repro.network.reliable.ReliableChannel`
            (ack + retransmit + dedup) under the platform's critical sends;
            a dict supplies channel keyword arguments (ack_timeout, backoff,
            max_attempts, ...).
        heartbeat_interval: analyzer liveness-beacon period (``None``
            disables heartbeating).  The root evicts a container silent
            for ``TIMEOUT_BEACONS`` (4) intervals.
        telemetry: ``False`` (default) runs with zero tracing state;
            ``True`` installs a
            :class:`~repro.simkernel.telemetry.Telemetry` flight recorder
            (causal spans through the whole pipeline + a session metric
            registry); a dict supplies its keyword arguments
            (``capacity``, ``profile``).  Telemetry is passive -- the
            simulation's behaviour and outputs are identical either way.
        gossip: ``False`` (default) builds no mesh -- zero behaviours,
            events or messages, preserving byte-identical paper runs.
            ``True`` installs a :class:`~repro.core.gossip.GossipMesh`:
            each round, an analyzer's heartbeat carries its SWIM-style
            suspicion digest to the root and to a peer, so failure
            detection survives the loss of the root host (split-brain);
            analyzers elect a stand-in dispatcher for results that would
            be lost against the dead root, and reconcile on heal.  A dict
            supplies mesh keyword arguments (``interval``, at most
            ``heartbeat_interval``).
        slos: iterable of :class:`~repro.core.health.SLOSpec` latency
            objectives.  Declaring any builds a
            :class:`~repro.core.health.HealthMonitor` (and implies
            ``telemetry=True``): per-stage streaming histograms,
            multi-window burn-rate alerting (``slo-burn`` findings
            through the ordinary report/alert path) and green /
            degraded / red scorecards.  Unlike telemetry, the monitor
            is *active* (its checker ticks and its findings travel the
            network), so leave it unset for byte-identical paper runs.
        shards: number of classifier/storage shards.  1 (default) is the
            paper reproduction, byte-identical to the unsharded code
            path.  Above 1, the grid partitions by consistent hash of
            the device key (see :mod:`repro.core.sharding`): shard 0
            keeps ``storage_host`` and the historical component names,
            every further shard gets a derived host
            (``<storage_host>-s<i>``) with its own storage/classifier
            lane, collectors route each record to its owner shard,
            level-2 analysis is shard-local and level-3 correlation
            scatter-gathers across shards.
    """

    def __init__(
        self,
        devices,
        collector_hosts,
        analysis_hosts,
        storage_host,
        interface_host,
        policy="knowledge",
        cluster_strategy="by-group",
        dataset_threshold=6,
        cost_model=None,
        seed=0,
        knowledge_base_factory=None,
        job_timeout=60.0,
        fetch_timeout=None,
        fetch_retries=2,
        enable_cross=True,
        collector_parse_locally=True,
        shipping_protocol=None,
        wan=None,
        reliability=False,
        heartbeat_interval=None,
        telemetry=False,
        gossip=False,
        slos=(),
        shards=1,
    ):
        if not devices:
            raise ValueError("at least one device is required")
        if not collector_hosts:
            raise ValueError("at least one collector host is required")
        if not analysis_hosts:
            raise ValueError("at least one analysis host is required")
        self.devices = list(devices)
        self.collector_hosts = list(collector_hosts)
        self.analysis_hosts = list(analysis_hosts)
        self.storage_host = storage_host
        self.interface_host = interface_host
        self.policy = policy
        self.cluster_strategy = cluster_strategy
        self.dataset_threshold = dataset_threshold
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.seed = seed
        self.knowledge_base_factory = (
            knowledge_base_factory if knowledge_base_factory is not None
            else standard_knowledge_base
        )
        self.job_timeout = job_timeout
        if fetch_retries < 0:
            raise ValueError("fetch_retries must be >= 0")
        self.fetch_retries = int(fetch_retries)
        if fetch_timeout is None:
            fetch_timeout = job_timeout / (2.0 * (self.fetch_retries + 1))
        if fetch_timeout <= 0:
            raise ValueError("fetch_timeout must be positive")
        if fetch_timeout * (self.fetch_retries + 1) >= job_timeout:
            raise ValueError(
                "fetch_timeout (%g) x %d attempts must stay below "
                "job_timeout (%g); a fetch ladder that outlives the job "
                "only feeds re-dispatch" % (
                    fetch_timeout, self.fetch_retries + 1, job_timeout))
        self.fetch_timeout = fetch_timeout
        self.enable_cross = enable_cross
        self.collector_parse_locally = collector_parse_locally
        # Collector->classifier batch protocol ("http"/"smtp" or a
        # ProtocolSpec); the paper ships "through any existing protocol
        # such as SMTP or HTTP".
        if shipping_protocol is None:
            from repro.network.protocols import HTTP
            shipping_protocol = HTTP
        elif isinstance(shipping_protocol, str):
            from repro.network.protocols import protocol_overhead
            shipping_protocol = protocol_overhead(shipping_protocol)
        self.shipping_protocol = shipping_protocol
        self.wan = wan  # LinkSpec for cross-site traffic (None = default)
        self.reliability = reliability
        self.heartbeat_interval = heartbeat_interval
        self.telemetry = telemetry
        self.gossip = gossip
        # SLOs need the span feed; declaring any implies telemetry.
        self.slos = tuple(slos)
        if self.slos and not self.telemetry:
            self.telemetry = True
        if int(shards) != shards or shards < 1:
            raise ValueError("shards must be a positive integer")
        self.shards = int(shards)

    @classmethod
    def paper_figure6c(cls, seed=0, **overrides):
        """The paper's Figure 6(c) deployment: 3 collectors, 1 storage host,
        2 inference hosts, 3 managed devices."""
        parameters = dict(
            devices=[
                DeviceSpec("dev1", "server", "site1"),
                DeviceSpec("dev2", "router", "site1"),
                DeviceSpec("dev3", "server", "site1"),
            ],
            collector_hosts=[
                HostSpec("collector1", "site1"),
                HostSpec("collector2", "site1"),
                HostSpec("collector3", "site1"),
            ],
            analysis_hosts=[
                HostSpec("inference1", "site1"),
                HostSpec("inference2", "site1"),
            ],
            storage_host=HostSpec("storage1", "site1"),
            interface_host=HostSpec("interface1", "site1"),
            seed=seed,
        )
        parameters.update(overrides)
        return cls(**parameters)

    def __repr__(self):
        return "GridTopologySpec(devices=%d, collectors=%d, analyzers=%d)" % (
            len(self.devices), len(self.collector_hosts), len(self.analysis_hosts),
        )


def _options(value):
    """Keyword arguments from a ``True``/dict feature switch."""
    return dict(value) if isinstance(value, dict) else {}


class Fabric:
    """The substrate grids run on: simulator, network, transport, the
    optional flight recorder and reliable channel, and the agent platform.

    A standalone :class:`GridManagementSystem` builds its own; a
    federation builds one and hands it to every site's grid.  The fabric
    registers its own telemetry sources (platform, transport, channel)
    and hooks the channel into the span recorder once, however many
    grids share it.  The channel's source carries ``grid="network"``.
    """

    def __init__(self, seed=0, wan=None, reliability=False, telemetry=False):
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, wan=wan)
        self.transport = Transport(self.network)
        self.telemetry = None
        if telemetry:
            from repro.simkernel.telemetry import Telemetry

            self.telemetry = Telemetry(self.sim, **_options(telemetry))
        self.reliable_channel = None
        if reliability:
            from repro.network.reliable import ReliableChannel

            self.reliable_channel = ReliableChannel(
                self.transport, **_options(reliability))
        self.platform = AgentPlatform(
            self.sim, self.network, self.transport,
            reliable_channel=self.reliable_channel,
            telemetry=self.telemetry,
        )
        if self.telemetry is not None:
            self._wire_telemetry()

    def _wire_telemetry(self):
        """Terminate in-flight spans when the reliable channel gives up on
        an envelope (so no batch vanishes from the trace tree without an
        explicit ``dead-letter`` status), and register the fabric's own
        counters as metric sources."""
        from repro.simkernel.telemetry import wire_channel_tracing

        telemetry = self.telemetry
        telemetry.register_source(self.platform.stats, grid="platform")
        telemetry.register_source(self.transport.stats, grid="network")
        if self.reliable_channel is not None:
            wire_channel_tracing(telemetry.recorder, self.reliable_channel)
            telemetry.register_source(
                self.reliable_channel.stats, grid="network",
                agent="reliable-channel",
            )

    def run_until(self, done, timeout, settle):
        """Run in 5 s slices until ``done()`` or ``timeout`` sim-seconds
        pass; after success simulate ``settle`` more seconds so in-flight
        accounting completes.  Returns ``done()``."""
        sim = self.sim
        deadline = sim.now + timeout
        while not done() and sim.now < deadline:
            sim.run(until=min(deadline, sim.now + 5.0))
        if done() and settle > 0:
            sim.run(until=sim.now + settle)
        return done()


class GridManagementSystem:
    """A fully wired agent-grid management deployment.

    Args:
        spec: the :class:`GridTopologySpec`.
        fabric: the :class:`Fabric` to build on; ``None`` builds a private
            one from the spec's seed, WAN, reliability and telemetry.  A
            grid on a fabric that was passed in is one site of a larger
            deployment: its agent and container names end in
            ``@<site>`` (the storage host's site), so several grids never
            collide on one platform.
        processor: another grid on the same fabric whose root and
            interface this grid reports to.  Such a grid builds no root
            and no interface of its own (the integrated federation: one
            processing grid fed by every site's collectors and
            classifiers).
    """

    def __init__(self, spec, fabric=None, processor=None):
        self.spec = spec
        self.cost_model = spec.cost_model
        self.site = spec.storage_host.site
        self._suffix = ""
        if fabric is None:
            fabric = Fabric(spec.seed, spec.wan, spec.reliability,
                            spec.telemetry)
        else:
            self._suffix = "@" + self.site
        if processor is not None and processor.fabric is not fabric:
            raise ValueError("a processor grid must share this grid's fabric")
        self.fabric = fabric
        self.sim = fabric.sim
        self.network = fabric.network
        self.transport = fabric.transport
        self.telemetry = fabric.telemetry
        self.reliable_channel = fabric.reliable_channel
        self.platform = fabric.platform
        self._root_name = (processor.root.name if processor is not None
                           else self._named("pg-root"))
        self.devices = {}
        self.device_engines = {}
        self.collectors = []
        self.analyzers = []
        self._build_devices()
        self._build_storage_and_classifier()
        if processor is None:
            self._build_interface()
            self._build_root()
        else:
            self.interface = processor.interface
            self.root = processor.root
        self._build_analyzers()
        self._build_collector_grid()
        if self.telemetry is not None:
            self._wire_telemetry(owns_processor=processor is None)
        # The health layer only exists when SLOs are declared: its checker
        # process schedules real events (and its findings travel the real
        # network), so an always-on monitor would break the telemetry
        # passivity contract pinned by tests/test_telemetry.py.
        self.health = None
        if spec.slos:
            from repro.core.health import HealthMonitor

            self.health = HealthMonitor(self, spec.slos).attach()

    # -- construction ----------------------------------------------------

    def _named(self, name):
        """An agent or container name, site-qualified on a shared fabric."""
        return name + self._suffix

    def _build_devices(self):
        for device_spec in self.spec.devices:
            host = self.network.add_host(
                device_spec.name, device_spec.site, role="device",
            )
            device = ManagedDevice(self.sim, host, profile=device_spec.profile)
            self.devices[device_spec.name] = device
            self.device_engines[device_spec.name] = SnmpEngine(
                device, self.transport,
            )

    def _add_management_host(self, host_spec, role):
        """Create the host, or reuse it when another grid role co-locates.

        Co-location is how the baseline architectures are expressed: the
        centralized model puts every role on one "manager" host, the
        multi-agent model co-locates storage/analysis/interface there while
        keeping separate collector hosts.
        """
        if host_spec.name in self.network.hosts:
            host = self.network.host(host_spec.name)
            if host.role != role:
                host.role = "manager"  # multiple roles = a manager station
            return host
        return self.network.add_host(
            host_spec.name, host_spec.site, role=role,
            cpu_capacity=host_spec.cpu_capacity,
            disk_capacity=host_spec.disk_capacity,
            net_capacity=host_spec.net_capacity,
        )

    def _shard_host_spec(self, index):
        """Shard 0 is the spec's storage host; others derive from it."""
        base = self.spec.storage_host
        if index == 0:
            return base
        return HostSpec(
            "%s-s%d" % (base.name, index), site=base.site,
            cpu_capacity=base.cpu_capacity, disk_capacity=base.disk_capacity,
            net_capacity=base.net_capacity, knowledge=base.knowledge,
        )

    def _build_shard(self, index):
        """Build one classifier/storage lane (container + store + agents)."""
        host = self._add_management_host(self._shard_host_spec(index),
                                         "storage")
        lane = "" if index == 0 else "-s%d" % index
        container = self.platform.create_container(
            self._named("storage-container" + lane), host,
            services=("storage", "classification"),
        )
        store = ManagementDataStore(host, self.cost_model)
        storage_agent = StorageAgent("storage@" + host.name, store)
        container.deploy(storage_agent)
        classifier = ClassifierAgent(
            self._named("classifier" + lane),
            store=store,
            processor_name=self._root_name,
            cost_model=self.cost_model,
            cluster_strategy=self.spec.cluster_strategy,
            dataset_threshold=self.spec.dataset_threshold,
            external_flush=self.spec.shards > 1,
        )
        container.deploy(classifier)
        self.shard_hosts.append(host)
        self.storage_containers.append(container)
        self.stores.append(store)
        self.storage_agents.append(storage_agent)
        self.classifiers.append(classifier)
        self._classifier_by_host[host.name] = classifier.name

    def _build_storage_and_classifier(self):
        self.shard_hosts = []
        self.storage_containers = []
        self.stores = []
        self.storage_agents = []
        self.classifiers = []
        self._classifier_by_host = {}
        for index in range(self.spec.shards):
            self._build_shard(index)
        # Shard-0 aliases keep the historical single-lane API (and every
        # test/example written against it) working unchanged.
        self.storage_container = self.storage_containers[0]
        self.store = self.stores[0]
        self.storage_agent = self.storage_agents[0]
        self.classifier = self.classifiers[0]
        self.ring = None
        if self.spec.shards > 1:
            from repro.agents.behaviours import MultiplexedTickerBehaviour
            from repro.core.sharding import HashRing

            self.ring = HashRing(host.name for host in self.shard_hosts)
            # One coalesced watchdog flushes every shard classifier's
            # stale dataset: N shards cost one timer event per period
            # instead of N mailbox-timeout wakeups.
            flush_mux = MultiplexedTickerBehaviour(
                period=self.classifier.flush_timeout, name="shard-flush",
            )
            for classifier in self.classifiers:
                flush_mux.add_callback(classifier._flush_if_stale)
            self.classifier.add_behaviour(flush_mux)

    def _build_interface(self):
        host = self._add_management_host(self.spec.interface_host, "interface")
        container = self.platform.create_container(
            self._named("interface-container"), host, services=("interface",),
        )
        self.interface = InterfaceAgent(self._named("interface"))
        container.deploy(self.interface)

    def _build_root(self):
        # The root is co-located with storage (it is a broker, not a worker).
        self.root = ProcessorRootAgent(
            self._root_name,
            interface_name=self.interface.name,
            policy=make_policy(self.spec.policy),
            cost_model=self.cost_model,
            job_timeout=self.spec.job_timeout,
            enable_cross=self.spec.enable_cross,
            heartbeat_interval=self.spec.heartbeat_interval,
            scatter_shards=self.spec.shards,
        )
        self.storage_container.deploy(self.root)

    def _build_analyzers(self):
        self.analysis_containers = []
        for index, host_spec in enumerate(self.spec.analysis_hosts):
            host = self._add_management_host(host_spec, "analysis")
            container = self.platform.create_container(
                self._named("analysis-%d" % (index + 1)), host,
                services=("analysis",), knowledge=host_spec.knowledge,
            )
            self.analysis_containers.append(container)
            self.analyzers.append(AnalyzerAgent(
                self._named("analyzer-%d" % (index + 1)),
                root_name=self._root_name,
                knowledge_base=self.spec.knowledge_base_factory(),
                cost_model=self.cost_model,
                heartbeat_interval=self.spec.heartbeat_interval,
                fetch_timeout=self.spec.fetch_timeout,
                fetch_retries=self.spec.fetch_retries,
            ))
        # The gossip mesh is strictly opt-in (byte-identity contract,
        # pinned by the figure-6 double-run test).  It attaches before the
        # analyzers deploy, so each one's setup starts its gossip loop.
        self.gossip = None
        if self.spec.gossip:
            from repro.core.gossip import GossipMesh

            self.gossip = GossipMesh(
                self.root, self.analyzers, **_options(self.spec.gossip))
        for container, analyzer in zip(self.analysis_containers,
                                       self.analyzers):
            container.deploy(analyzer)

    def _classifier_router(self):
        """Record -> shard classifier routing closure (None unsharded)."""
        if self.ring is None:
            return None
        ring = self.ring
        classifier_by_host = self._classifier_by_host

        # Records shard by device, so one shard owns every record (and
        # the whole metric history) of a device: level-2 consolidation
        # stays shard-local.
        def route(record):
            return classifier_by_host[ring.lookup(record.device)]

        return route

    def _build_collector_grid(self):
        device_specs = {
            name: (device.profile.interface_count, device.profile.process_slots)
            for name, device in self.devices.items()
        }
        classifier_router = self._classifier_router()
        self.collector_containers = []
        for index, host_spec in enumerate(self.spec.collector_hosts):
            host = self._add_management_host(host_spec, "collector")
            name = self._named("collector-%d" % (index + 1))
            container = self.platform.create_container(
                name, host, services=("collection",),
            )
            self.collector_containers.append(container)
            collector = CollectorAgent(
                name,
                goals=[],
                classifier_name=self.classifier.name,
                cost_model=self.cost_model,
                parse_locally=self.spec.collector_parse_locally,
                device_specs=device_specs,
                protocol=self.spec.shipping_protocol,
                classifier_router=classifier_router,
            )
            container.deploy(collector)
            self.collectors.append(collector)

    # -- telemetry ---------------------------------------------------------

    def _wire_telemetry(self, owns_processor):
        """Register this grid's components as labelled metric sources.

        The fabric registers its own (platform, transport, channel); the
        root and interface belong to the grid that built them.
        """
        telemetry = self.telemetry
        for collector in self.collectors:
            telemetry.register_source(
                lambda c=collector: {
                    "polls_completed": c.polls_completed,
                    "polls_failed": c.polls_failed,
                    "poll_retries_used": c.poll_retries_used,
                    "records_shipped": c.records_shipped,
                    "messages_sent": c.messages_sent,
                    "messages_received": c.messages_received,
                },
                grid="collector", host=collector.host.name,
                agent=collector.name,
            )
        for classifier in self.classifiers:
            telemetry.register_source(
                lambda c=classifier: {
                    "records_classified": c.records_classified,
                    "datasets_published": c.datasets_published,
                    "messages_sent": c.messages_sent,
                    "messages_received": c.messages_received,
                },
                grid="classifier", host=classifier.host.name,
                agent=classifier.name,
            )
        root = self.root
        if owns_processor:
            telemetry.register_source(
                lambda: {
                    "jobs_dispatched": root.jobs_dispatched,
                    "jobs_redispatched": root.jobs_redispatched,
                    "jobs_abandoned": root.jobs_abandoned,
                    "jobs_forwarded": root.jobs_forwarded,
                    "reports_issued": root.reports_issued,
                    "heartbeats_received": root.heartbeats_received,
                    "containers_evicted": root.containers_evicted,
                    "containers_recovered": root.containers_recovered,
                    "duplicate_results": root.duplicate_results,
                },
                grid="processor", host=root.host.name, agent=root.name,
            )
        if self.gossip is not None:
            telemetry.register_source(
                self.gossip.stats, grid="processor", agent="gossip-mesh",
            )
        for analyzer in self.analyzers:
            telemetry.register_source(
                lambda a=analyzer: {
                    "jobs_completed": a.jobs_completed,
                    "records_analyzed": a.records_analyzed,
                    "rules_fired": a.rules_fired,
                    "heartbeats_sent": a.heartbeats_sent,
                    "fetch_attempts": a.fetch_attempts,
                    "fetch_retries_used": a.fetch_retries_used,
                    "fetch_failures": a.fetch_failures,
                },
                grid="processor", host=analyzer.host.name,
                agent=analyzer.name,
            )
        interface = self.interface
        if owns_processor:
            telemetry.register_source(
                lambda: {
                    "reports": len(interface.reports),
                    "alerts": len(interface.alerts),
                },
                grid="interface", host=interface.host.name,
                agent=interface.name,
            )
        if self.ring is not None:
            def _shard_metrics():
                metrics = {
                    "records_shard%d" % index: store.records_stored
                    for index, store in enumerate(self.stores)
                }
                metrics.update(
                    shards=len(self.ring),
                    scatter_rounds=self.root.scatter_rounds,
                    scatter_fanout=self.root.last_scatter_fanout,
                    scatter_fanout_total=self.root.scatter_fanout_total,
                )
                return metrics

            # Shard 0's host names the sharded grid, so two sites on one
            # fabric report two distinguishable sources.
            telemetry.register_source(
                _shard_metrics, grid="storage",
                host=self.shard_hosts[0].name)

    # -- goal assignment -------------------------------------------------------

    def assign_goals(self, goals):
        """Distribute goals round-robin across collector agents."""
        for index, goal in enumerate(goals):
            self.collectors[index % len(self.collectors)].add_goal(goal)

    def make_paper_goals(self, polls_per_type=10, interval=1.0, stagger=0.1):
        """The paper's workload: N requests of each type, spread over devices.

        Request *i* of type *t* polls device ``i mod len(devices)``;
        consecutive polls from one goal are spaced by ``interval`` and
        goals start staggered so arrivals interleave.
        """
        device_names = sorted(self.devices)
        goals = []
        for type_index, request_type in enumerate(("A", "B", "C")):
            for poll_index in range(polls_per_type):
                device = device_names[poll_index % len(device_names)]
                goals.append(CollectionGoal(
                    device, request_type, count=1, interval=interval,
                    start_after=stagger * (poll_index * 3 + type_index),
                ))
        return goals

    # -- running ------------------------------------------------------------------

    def run(self, until=200.0):
        """Advance the simulation clock to ``until`` and return it.

        Devices schedule no events of their own: their dynamics are
        replayed when a poll reads them.
        """
        return self.sim.run(until=until)

    def run_until_reports(self, count, timeout=600.0, settle=1.0):
        """Run until the interface holds ``count`` reports (or timeout).

        Returns True when the reports arrived.  ``settle`` extra seconds are
        simulated afterwards so in-flight accounting completes.
        """
        event = self.interface.reports_event(count)
        return self.fabric.run_until(lambda: event.triggered, timeout, settle)

    def run_until_records(self, total, timeout=600.0, settle=1.0):
        """Run until ``total`` records have been analyzed and reported.

        Robust against the classifier splitting the workload into any
        number of datasets (threshold closes *and* quiet-time flushes).
        Returns True when every record made it through analysis.
        """

        def done():
            reports = self.interface.reports
            return sum(r.records_analyzed for r in reports) >= total

        return self.fabric.run_until(done, timeout, settle)

    # -- reporting ------------------------------------------------------------------

    def management_hosts(self):
        """Hosts whose utilization Figure 6 reports (devices excluded)."""
        return [
            host for host in self.network.hosts.values()
            if host.role != "device"
        ]

    def utilization_report(self, label="grid"):
        from repro.evaluation.accounting import UtilizationReport

        return UtilizationReport.from_hosts(
            label, self.management_hosts(), horizon=self.sim.now,
        )

    def __repr__(self):
        return "GridManagementSystem(%r)" % (self.spec,)
