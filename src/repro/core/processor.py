"""The Processor Grid (PG): root broker, analyzer containers, multi-level
analysis.

Section 3.3: the grid root "co-ordinates this distribution, functioning as
a broker in the system" -- it receives data-ready notifications from the
classifier grid, divides analysis activities per cluster (Figure 3),
selects containers through directory profiles or negotiation (Figure 4 /
section 3.5), tracks outstanding jobs with timeouts (fault tolerance), runs
the level-3 cross-inference once level-1/2 jobs complete, and ships the
consolidated report to the interface grid.

Analyzer agents do the actual work: fetch their cluster from storage,
charge the Table 1 inference cost, run the rule engine over the facts, and
return findings.
"""

from repro.agents.acl import ACLMessage, MessageTemplate, Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import CyclicBehaviour, TickerBehaviour
from repro.agents.directory import DirectoryFacilitator
from repro.agents.ontology import (
    ANALYSIS_JOB,
    ANALYSIS_RESULT,
    CONTAINER_PROFILE,
    DATA_READY,
    HEARTBEAT,
)
from repro.core.costs import DEFAULT_COST_MODEL, GROUP_REQUEST_TYPES, TaskKind
from repro.core.liveness import DOWN, TIMEOUT_BEACONS, FailureDetector
from repro.core.loadbalance import KnowledgeFirstPolicy, PlacementJob
from repro.core.negotiation import (
    CONTRACT_NET,
    ContractNetInitiator,
    ContractNetResponder,
)
from repro.core.reports import Finding, ManagementReport
from repro.rules.facts import Fact, WorkingMemory

#: Cluster name used for level-3 cross-inference jobs.
CROSS_CLUSTER = "correlation"
#: Seconds a level-3 scope waits for every shard's dataset before its
#: cross job dispatches over the members it has.
SCATTER_WINDOW = 10.0
#: Concurrent summary fetches per wave of a cross job.
SCATTER_FANOUT = 4


class _JobState:
    """Root-side bookkeeping for one dispatched job."""

    def __init__(self, job_id, dataset_id, cluster, record_count, level,
                 container, agent_name, deadline, attempt=1):
        self.job_id = job_id
        self.dataset_id = dataset_id
        self.cluster = cluster
        self.record_count = record_count
        self.level = level
        self.container = container
        self.agent_name = agent_name
        self.deadline = deadline
        self.attempt = attempt
        self.done = False
        self.excluded_containers = set()
        self.span = None  # the dispatch span for this attempt (telemetry)


class _DatasetState:
    """Root-side bookkeeping for one dataset under analysis."""

    def __init__(self, dataset_id, record_count, storage_host, clusters):
        self.dataset_id = dataset_id
        self.record_count = record_count
        self.storage_host = storage_host
        self.pending_clusters = set(clusters)
        self.findings = []
        self.records_analyzed = 0
        self.cross_dispatched = False
        self.finished = False
        self.trace = None  # (trace_id, notify span id) from the classifier


class _Scope:
    """The datasets one level-3 cross job correlates over.

    The first member is the *primary*: the cross job is dispatched against
    it, its report carries the level-3 findings, and every other member
    finalizes alongside it.
    """

    def __init__(self):
        self.members = []   # _DatasetState, primary first
        self.hosts = set()  # distinct storage hosts enrolled so far
        self.closed = False

    def own_problems(self):
        """The members' level-1/2 findings as problem dicts."""
        return [_finding_to_problem_dict(finding)
                for member in self.members for finding in member.findings]


class ProcessorRootAgent(Agent):
    """The analysis-grid root / broker.

    Args:
        name: agent name.
        storage_agent_name: where analyzers fetch data from.
        interface_name: the interface-grid agent receiving reports.
        policy: a :class:`~repro.core.loadbalance.PlacementPolicy`
            (default knowledge-first, the paper's primary principle).
        cost_model: Table 1 cost model.
        directory: optional shared
            :class:`~repro.agents.directory.DirectoryFacilitator`; the root
            creates a private one ("D1") when omitted.
        job_timeout: grace period added to a job's *estimated service time*
            before it is considered lost and re-dispatched to a different
            container (fault tolerance).  The grace doubles per attempt so
            a slow-but-alive analyzer is not stampeded with duplicates.
        max_attempts: after this many dispatch attempts a cluster is
            abandoned (the dataset report proceeds without its findings,
            carrying an ``analysis-abandoned`` error finding instead).
        heartbeat_interval: the analyzers' beacon period.  A container
            silent for ``TIMEOUT_BEACONS`` intervals is declared dead and
            *evicted*: its outstanding jobs are settled and re-dispatched
            immediately instead of waiting out the Reaper's job timeout.
            ``None`` (default) disables eviction; containers that resume
            heartbeating after an eviction are re-registered.
        enable_cross: run the level-3 cross analysis.
        negotiation_deadline: proposal window for the negotiated policy.
        cross_window, scatter_shards: the level-3 *scope*.  A dataset
            whose level-2 clusters all settled enrolls in the open scope,
            which closes once its members' storage hosts number
            ``scatter_shards`` (at 1, the default, every dataset closes
            its own scope) or ``SCATTER_WINDOW`` seconds after its first
            member enrolled, so a quiet shard cannot stall correlation.
            A closed scope dispatches ONE cross job, which fetches every
            member's summary and correlates the members' problems plus,
            when ``cross_window`` > 0, the problems other scopes found
            within the last ``cross_window`` seconds -- the federation
            layer uses this so incidents spanning sites (datasets from
            different classifiers) can be correlated.  All members
            finalize when the cross job settles.
    """

    def __init__(
        self,
        name,
        storage_agent_name,
        interface_name,
        policy=None,
        cost_model=None,
        directory=None,
        job_timeout=60.0,
        enable_cross=True,
        negotiation_deadline=2.0,
        max_attempts=6,
        cross_window=0.0,
        heartbeat_interval=None,
        scatter_shards=1,
    ):
        super().__init__(name)
        self.storage_agent_name = storage_agent_name
        self.interface_name = interface_name
        self.policy = policy if policy is not None else KnowledgeFirstPolicy()
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.directory = directory
        self.job_timeout = job_timeout
        self.enable_cross = enable_cross
        self.negotiation_deadline = negotiation_deadline
        self.max_attempts = max_attempts
        self.heartbeat_timeout = (None if heartbeat_interval is None
                                  else TIMEOUT_BEACONS * heartbeat_interval)
        #: Container liveness from heartbeats (also read by scorecards).
        self.detector = FailureDetector(
            lambda: self.sim.now, down_after=self.heartbeat_timeout)
        self.jobs_abandoned = 0
        #: Seconds to wait for a placeable container before abandoning a
        #: job outright (e.g. every analyzer in the grid is gone).
        self.placement_patience = 120.0
        self.cross_window = cross_window
        if scatter_shards < 1:
            raise ValueError("scatter_shards must be >= 1")
        self.scatter_shards = scatter_shards
        self._open_scope = None
        self._scopes = {}  # primary dataset id -> closed scope
        #: Scopes closed, and their storage hosts in total and in the last.
        self.scatter_rounds = 0
        self.scatter_fanout_total = 0
        self.last_scatter_fanout = 0
        self._recent_problems = []  # [(closed at, problem)] of closed scopes
        self._analyzer_agent_by_container = {}
        self._outstanding_by_container = {}
        self.jobs = {}
        #: (dataset, cluster, level) -> its latest attempt, while unsettled.
        self._attempts = {}
        self.datasets = {}
        self.jobs_dispatched = 0
        self.jobs_redispatched = 0
        self.reports_issued = 0
        # -- cross-site forwarding (federation mesh) ------------------------
        #: Optional callable ``forwarder(job_content, span) -> site | None``
        #: installed by a site gateway; consulted when the local grid is
        #: saturated.  A non-None return means the job left the site -- the
        #: gateway owns delivery and the result comes back as a normal
        #: ANALYSIS_RESULT under the same job id.
        self.forwarder = None
        #: Outstanding jobs per live container at/above which the local
        #: grid counts as saturated for forwarding purposes.
        self.forward_threshold = 2
        self.jobs_forwarded = 0
        self.negotiator = None
        self.heartbeats_received = 0
        #: Results that arrived for an already-settled task -- normally the
        #: superseded attempt of a re-dispatch race, but after a
        #: split-brain heal also the gossip stand-in's buffer flush.
        #: Counted (exactly-once audit), never re-applied.
        self.duplicate_results = 0

    def setup(self):
        if self.directory is None:
            self.directory = DirectoryFacilitator(self.sim)
        self.negotiator = ContractNetInitiator(self, self.negotiation_deadline)
        root = self

        class Registrations(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology=CONTAINER_PROFILE.name,
                ))
                if message is not None:
                    root._register_analyzer(message)

        class DataReady(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology=DATA_READY.name,
                ))
                if message is not None:
                    yield from root._start_dataset(message)

        class Results(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology=ANALYSIS_RESULT.name,
                ))
                if message is not None:
                    yield from root._job_completed(message)

        class Reaper(TickerBehaviour):
            def on_tick(self):
                yield from root._reap_expired_jobs()

        class Heartbeats(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology=HEARTBEAT.name,
                ))
                if message is not None:
                    root._on_heartbeat(message)

        class Detector(TickerBehaviour):
            def on_tick(self):
                yield from root._check_heartbeats()

        self.add_behaviour(Registrations("registrations"))
        self.add_behaviour(DataReady("data-ready"))
        self.add_behaviour(Results("results"))
        self.add_behaviour(Reaper(
            period=max(1.0, self.job_timeout / 4.0), name="reaper",
        ))
        self.add_behaviour(Heartbeats("heartbeats"))
        if self.heartbeat_timeout is not None:
            self.add_behaviour(Detector(
                period=max(0.5, self.heartbeat_timeout / 4.0),
                name="failure-detector",
            ))

    # -- registration (Figure 4) ------------------------------------------

    def _register_analyzer(self, message):
        content = CONTAINER_PROFILE.validate(message.content)
        container = self.platform.containers.get(content["container"])
        if container is None:
            return
        self.directory.register_container_profile(container.profile())
        self._analyzer_agent_by_container[content["container"]] = str(message.sender)

    def analyzer_containers(self):
        return sorted(self._analyzer_agent_by_container)

    # -- dataset handling -----------------------------------------------------

    def _start_dataset(self, message):
        content = DATA_READY.validate(message.content)
        dataset_id = content["dataset"]
        clusters = list(content["clusters"])
        sizes = content.get("cluster_sizes") or {}
        state = _DatasetState(
            dataset_id, content["record_count"], content["storage_host"], clusters,
        )
        telemetry = self.telemetry
        if telemetry is not None and message.trace_context is not None:
            # The DATA_READY survived the wire: close the notify span and
            # hang every dispatch/report span for this dataset under it.
            telemetry.recorder.end(message.trace_context[1])
            state.trace = message.trace_context
        self.datasets[dataset_id] = state
        for cluster in clusters:
            record_count = int(sizes.get(cluster, 0)) or max(
                1, content["record_count"] // max(1, len(clusters)),
            )
            yield from self._dispatch_job(
                dataset_id, cluster, record_count, level=2, exclude=(),
            )

    def _fresh_profiles(self, exclude=()):
        """Live profiles of registered analyzer containers.

        Static facts come from the directory; dynamic load is refreshed
        from the containers themselves (the paper's "request the current
        profile of the resources"), and dead containers are dropped.
        """
        profiles = []
        for container_name in sorted(self._analyzer_agent_by_container):
            if container_name in exclude:
                continue
            container = self.platform.containers.get(container_name)
            if container is None or not container.alive:
                continue
            profile = container.profile()
            # Jobs this root has dispatched but not yet seen answered are
            # invisible to the container's own queue (they may still be in
            # flight); fold them into the load indicators so back-to-back
            # dispatches spread instead of dog-piling one container.
            outstanding = self._outstanding_by_container.get(container_name, 0)
            profile.cpu_queue_length += outstanding
            profile.busy_agents += outstanding
            self.directory.register_container_profile(profile)
            profiles.append(profile)
        return profiles

    def _job_content(self, job_id, dataset_id, cluster, record_count, level,
                     state):
        """Build the validated ANALYSIS_JOB content for one job.

        Independent of placement -- the same content ships to a local
        analyzer or, via the forwarder, to a peer site.
        """
        content_kwargs = dict(
            job_id=job_id,
            dataset=dataset_id,
            cluster=cluster,
            record_count=record_count,
            level=level,
            storage_host=state.storage_host,
            problems=[],
        )
        if level >= 3:
            # The job names every member's (host, dataset) so the analyzer
            # fetches all of them before correlating.  The scope stays
            # registered until _finalize_cross, so a Reaper re-dispatch
            # rebuilds the same view.
            scope = self._scopes[dataset_id]
            content_kwargs["problems"] = self._scope_problems(scope)
            content_kwargs["shards"] = [
                [member.storage_host, member.dataset_id]
                for member in scope.members
            ]
        return ANALYSIS_JOB.make(**content_kwargs)

    def _grid_saturated(self, profiles):
        """True when every live container is at the forwarding threshold.

        An empty profile list counts as saturated only when containers
        *had* registered -- they are gone, not merely late to register;
        a freshly built grid waits for registrations instead of shipping
        its first jobs off-site.
        """
        if not profiles:
            return bool(self._analyzer_agent_by_container
                        or self.detector.downs)
        outstanding = self._outstanding_by_container
        return all(
            outstanding.get(profile.container_name, 0)
            >= self.forward_threshold
            for profile in profiles
        )

    def _forward_job(self, job_id, dataset_id, cluster, record_count, level,
                     state, span, exclude, attempt):
        """Offer one job to the forwarder; book it as remote on success."""
        remote = self.forwarder(
            dict(self._job_content(
                job_id, dataset_id, cluster, record_count, level, state,
            )),
            span,
        )
        if remote is None:
            return None
        remote_label = "remote:%s" % remote
        # No service estimate for a remote container: the deadline is the
        # attempt's full grace window, and the Reaper re-dispatches
        # locally if it expires; whichever answer arrives first settles
        # the task.
        grace = self.job_timeout * (2 ** (attempt - 1))
        job_state = _JobState(
            job_id, dataset_id, cluster, record_count, level,
            remote_label, remote_label,
            deadline=self.sim.now + grace, attempt=attempt,
        )
        self._register(job_state, exclude, span)
        self.jobs_forwarded += 1
        if span is not None:
            span.detail["container"] = remote_label
        return job_state

    def _dispatch_job(self, dataset_id, cluster, record_count, level,
                      exclude=(), attempt=1):
        """Place and send one analysis job (process generator)."""
        state = self.datasets[dataset_id]
        if level >= 3:
            infer_cpu = self.cost_model.cross_cost().cpu
            cpu_units = infer_cpu
        else:
            group = cluster if cluster in GROUP_REQUEST_TYPES else "performance"
            infer_cpu = self.cost_model.infer_cost(
                GROUP_REQUEST_TYPES[group]).cpu
            cpu_units = infer_cpu * max(1, record_count)
        job_id = self.sim.next_id("job")
        span = None
        telemetry = self.telemetry
        if telemetry is not None and state.trace is not None:
            # One dispatch span per attempt, covering placement (incl. any
            # negotiation) through to the job's settlement: "ok" on result,
            # "timeout"/"evicted" when the attempt is retired.
            span = telemetry.recorder.start(
                "dispatch", state.trace[0], parent=state.trace[1],
                grid="processor", host=self.host.name, agent=self.name,
                job_id=job_id, cluster=cluster, level=level, attempt=attempt,
            )
        placement = PlacementJob(
            job_id, cluster, record_count, cpu_units,
            required_service="analysis",
        )
        task = (dataset_id, cluster, level)
        container_name = None
        wait_deadline = self.sim.now + self.placement_patience
        while container_name is None:
            if self._settled_while_placing(task, attempt, span):
                return None
            if self.sim.now >= wait_deadline:
                if span is not None:
                    telemetry.recorder.end(
                        span, status="abandoned",
                        reason="no placeable analyzer container",
                    )
                yield from self._abandon_placement(dataset_id, cluster, level)
                return None
            profiles = self._fresh_profiles(exclude=exclude)
            if not profiles and exclude:
                # Every non-excluded container is gone; retry everywhere.
                profiles = self._fresh_profiles(exclude=())
            if self.forwarder is not None and self._grid_saturated(profiles):
                forwarded = self._forward_job(
                    job_id, dataset_id, cluster, record_count, level,
                    state, span, exclude, attempt,
                )
                if forwarded is not None:
                    return forwarded
            if not profiles:
                yield 1.0  # no analyzers yet; wait for registrations
                continue
            if self.policy.needs_negotiation:
                pool = self.policy.choose(placement, profiles)
                if not pool:
                    yield 1.0
                    continue
                candidate_agents = [
                    self._analyzer_agent_by_container[profile.container_name]
                    for profile in pool
                ]
                outcome = yield from self.negotiator.negotiate(
                    placement, candidate_agents,
                )
                container_name = outcome.winner
                if container_name is None:
                    yield 1.0
                    continue
            else:
                chosen = self.policy.choose(placement, profiles)
                if chosen is None:
                    yield 1.0
                    continue
                container_name = chosen.container_name
        if self._settled_while_placing(task, attempt, span):
            return None
        agent_name = self._analyzer_agent_by_container[container_name]
        job_content = self._job_content(
            job_id, dataset_id, cluster, record_count, level, state,
        )
        # Deadline = estimated service time on the chosen container plus a
        # grace that doubles per attempt; a busy queue is not a dead host.
        chosen_container = self.platform.containers.get(container_name)
        capacity = (
            chosen_container.host.cpu.capacity if chosen_container is not None
            else 10.0
        )
        backlog = (
            self._outstanding_by_container.get(container_name, 0) * cpu_units
        )
        service_estimate = (cpu_units + backlog) / capacity
        grace = self.job_timeout * (2 ** (attempt - 1))
        job_state = _JobState(
            job_id, dataset_id, cluster, record_count, level,
            container_name, agent_name,
            deadline=self.sim.now + service_estimate + grace, attempt=attempt,
        )
        self._register(job_state, exclude, span)
        self._outstanding_by_container[container_name] = (
            self._outstanding_by_container.get(container_name, 0) + 1
        )
        message = ACLMessage(
            Performative.REQUEST,
            sender=self.name,
            receiver=agent_name,
            content=dict(job_content),
            ontology=ANALYSIS_JOB.name,
            size_units=self.cost_model.notify_size,
        )
        if span is not None:
            span.detail["container"] = container_name
            message.trace_context = (span.trace_id, span.span_id)
        self.send(message)
        return job_state

    def _settled_while_placing(self, task, attempt, span):
        """True once a late answer from the retired attempt settled the
        task this re-dispatch is still placing (its span is superseded)."""
        if attempt == 1 or task in self._attempts:
            return False
        if span is not None:
            self.telemetry.recorder.end(span, status="superseded")
        return True

    def _register(self, job_state, exclude, span):
        """Book a placed attempt as its task's live one."""
        job_state.excluded_containers = set(exclude)
        job_state.span = span
        self.jobs[job_state.job_id] = job_state
        self._attempts[job_state.dataset_id, job_state.cluster,
                       job_state.level] = job_state
        self.jobs_dispatched += 1
        if job_state.attempt > 1:
            self.jobs_redispatched += 1

    # -- results --------------------------------------------------------------

    def _job_completed(self, message):
        """The first answer from any attempt settles its task.

        A retired attempt (timed out or evicted) that answers after all
        still settles the task if it is open, and the newer live attempt
        is retired as ``superseded``; an answer for a settled task is a
        duplicate.
        """
        content = ANALYSIS_RESULT.validate(message.content)
        job = self.jobs.get(content["job_id"])
        live = None if job is None else self._attempts.pop(
            (job.dataset_id, job.cluster, job.level), None)
        if live is None:
            self.duplicate_results += 1
            return  # the task is settled: a superseded attempt's answer
        if live is not job and not live.done:
            self._retire(live, "superseded")
        elif not job.done:
            job.done = True
            if job.span is not None:
                self.telemetry.recorder.end(job.span)
            self._settle_outstanding(job.container)
        state = self.datasets.get(job.dataset_id)
        if state is None or state.finished:
            return
        state.findings.extend(content["findings"])
        state.records_analyzed += content["records_analyzed"]
        if job.level >= 3:
            yield from self._finalize_cross(state)
            return
        yield from self._cluster_done(state, job.cluster)

    def _cluster_done(self, state, cluster):
        """Advance a dataset once one of its clusters is resolved."""
        state.pending_clusters.discard(cluster)
        if state.pending_clusters or state.cross_dispatched:
            return
        if self.enable_cross:
            state.cross_dispatched = True
            yield from self._enroll(state)
        else:
            yield from self._finalize_dataset(state)

    # -- level 3: enroll -> close -> correlate --------------------------------

    def _enroll(self, state):
        """Add a level-2-complete dataset to the open scope.

        The scope closes as soon as every shard's storage host is
        represented (at once on an unsharded grid); otherwise its first
        member starts the ``SCATTER_WINDOW`` timer.
        """
        scope = self._open_scope
        if scope is None:
            scope = self._open_scope = _Scope()
        scope.members.append(state)
        scope.hosts.add(state.storage_host)
        if len(scope.hosts) >= self.scatter_shards:
            yield from self._close(scope)
        elif len(scope.members) == 1:
            self.sim.schedule(SCATTER_WINDOW, self._window_expired, (scope,))

    def _window_expired(self, scope):
        """Barrier timeout (kernel callback): close a partial scope."""
        if not scope.closed:
            self.sim.spawn(self._close(scope), name="%s/scope" % self.name)

    def _close(self, scope):
        """Close the open scope; dispatch ONE cross job over its members."""
        if scope.closed:
            return  # the barrier won the race with a spawned window close
        scope.closed = True
        self._open_scope = None
        primary = scope.members[0].dataset_id
        self._scopes[primary] = scope
        self.scatter_rounds += 1
        self.scatter_fanout_total += len(scope.hosts)
        self.last_scatter_fanout = len(scope.hosts)
        if self.cross_window > 0:
            # Only the members' own problems, stamped once: a borrowed
            # problem expires with the scope that found it.
            now = self.sim.now
            self._recent_problems.extend(
                (now, problem) for problem in scope.own_problems())
        yield from self._dispatch_job(
            primary, CROSS_CLUSTER, record_count=1, level=3,
        )

    def _scope_problems(self, scope):
        """The members' problems, then those other scopes recorded within
        ``cross_window``, deduplicated."""
        problems = scope.own_problems()
        if self.cross_window > 0:
            horizon = self.sim.now - self.cross_window
            self._recent_problems = [
                entry for entry in self._recent_problems if entry[0] >= horizon
            ]
            problems.extend(problem for _, problem in self._recent_problems)
        unique = {}
        for problem in problems:
            unique.setdefault(tuple(sorted(problem.items())), problem)
        return list(unique.values())

    def _finalize_cross(self, state):
        """Finalize every member after level 3 settles (result OR
        abandonment): the primary carries the cross findings, the others
        report their own level-2 results."""
        for member in self._scopes.pop(state.dataset_id).members:
            if not member.finished:
                yield from self._finalize_dataset(member)

    def _finalize_dataset(self, state):
        state.finished = True
        report = ManagementReport(
            report_id=self.sim.next_id("report"),
            dataset_id=state.dataset_id,
            findings=state.findings,
            records_analyzed=state.records_analyzed,
            generated_at=self.sim.now,
        )
        message = ACLMessage(
            Performative.INFORM,
            sender=self.name,
            receiver=self.interface_name,
            content={"report": report},
            ontology="management-report",
            size_units=self.cost_model.report_size,
        )
        telemetry = self.telemetry
        if telemetry is not None and state.trace is not None:
            # The report span covers wire transit + interface rendering;
            # the interface agent closes it on delivery.
            span = telemetry.recorder.start(
                "report", state.trace[0], parent=state.trace[1],
                grid="processor", host=self.host.name, agent=self.name,
                dataset=state.dataset_id, findings=len(state.findings),
            )
            if span is not None:
                message.trace_context = (span.trace_id, span.span_id)
        self.send(message)
        self.reports_issued += 1
        return
        yield  # pragma: no cover - keeps this a generator for symmetry

    def _abandon_placement(self, dataset_id, cluster, level):
        """Give up on placing a job (no analyzers for too long)."""
        state = self.datasets.get(dataset_id)
        if state is None or state.finished:
            self.jobs_abandoned += 1
            return
        yield from self._abandon_job(state, cluster, level,
                                     "no placeable analyzer container")

    def _abandon_job(self, state, cluster, level, reason):
        """Abandon a cluster/cross job; the dataset still finalizes.

        The report carries an ``analysis-abandoned`` error finding instead
        of the cluster's results, so the loss is visible to the manager
        rather than silent.
        """
        self.jobs_abandoned += 1
        self._attempts.pop((state.dataset_id, cluster, level), None)
        telemetry = self.telemetry
        if telemetry is not None and state.trace is not None:
            # An explicitly-statused terminal span: the cluster's chain
            # ends here on purpose, not by omission.
            recorder = telemetry.recorder
            recorder.end(
                recorder.start(
                    "abandoned", state.trace[0], parent=state.trace[1],
                    grid="processor", host=self.host.name, agent=self.name,
                    cluster=cluster, level=level, reason=reason,
                ),
                status="abandoned",
            )
        state.findings.append(Finding(
            kind="analysis-abandoned",
            severity="major",
            device="",
            detail={"cluster": cluster, "level": level, "reason": reason},
            level=level,
        ))
        if level >= 3:
            yield from self._finalize_cross(state)
        else:
            yield from self._cluster_done(state, cluster)

    def _retire(self, job, status):
        """End a live attempt: its spans close with ``status`` and its
        container's outstanding count is settled."""
        job.done = True
        if job.span is not None:
            self.telemetry.recorder.end(job.span, status=status)
            self.telemetry.recorder.end_children(job.span, status=status)
        self._settle_outstanding(job.container)

    def _settle_outstanding(self, container_name):
        count = self._outstanding_by_container.get(container_name, 0)
        if count > 0:
            self._outstanding_by_container[container_name] = count - 1

    # -- fault tolerance ----------------------------------------------------------

    @property
    def evictions(self):
        return self.detector.downs  # [(container, evicted_at)]

    @property
    def containers_evicted(self):
        return len(self.detector.downs)

    @property
    def containers_recovered(self):
        return len(self.detector.recoveries)

    def _on_heartbeat(self, message):
        """Record a liveness beacon; re-register a returned container."""
        content = HEARTBEAT.validate(message.content)
        container_name = content["container"]
        self.heartbeats_received += 1
        if container_name not in self._analyzer_agent_by_container:
            container = self.platform.containers.get(container_name)
            if container is None or not container.alive:
                return  # beacon from a corpse (in-flight when it died)
            # Either an eviction proved premature (the container was alive
            # but unreachable, e.g. its host was down) or a brand-new
            # container announced itself by heartbeat: (re-)register it.
            self._analyzer_agent_by_container[container_name] = content["agent"]
            self.directory.register_container_profile(container.profile())
        self.detector.heard(container_name)

    def _check_heartbeats(self):
        """Evict the containers whose beacons stopped, unless a beacon
        revived one while an earlier eviction was re-dispatching."""
        for container_name, _, _ in self.detector.sweep():
            if self.detector.status(container_name) == DOWN:
                yield from self._evict_container(container_name)

    def _evict_container(self, container_name):
        """Confirmed-dead path: deregister and recover its jobs *now*.

        Unlike the Reaper (which waits out each job's own deadline), an
        eviction settles every outstanding job on the container in one
        sweep and re-dispatches immediately -- detection latency is the
        heartbeat timeout, not the job timeout.
        """
        self._analyzer_agent_by_container.pop(container_name, None)
        for job in list(self.jobs.values()):
            if job.done or job.container != container_name:
                continue
            self._retire(job, "evicted")
            state = self.datasets.get(job.dataset_id)
            if state is None or state.finished:
                continue
            if job.attempt >= self.max_attempts:
                yield from self._abandon_job(state, job.cluster, job.level,
                                             "max attempts on eviction")
                continue
            exclude = set(job.excluded_containers)
            exclude.add(container_name)
            yield from self._dispatch_job(
                job.dataset_id, job.cluster, job.record_count, job.level,
                exclude=exclude, attempt=job.attempt + 1,
            )

    def _reap_expired_jobs(self):
        now = self.sim.now
        expired = [
            job for job in self.jobs.values()
            if not job.done and now >= job.deadline
        ]
        for job in expired:
            if job.done:
                continue  # settled while an earlier re-dispatch yielded
            self._retire(job, "timeout")
            state = self.datasets.get(job.dataset_id)
            if state is None or state.finished:
                continue
            if job.attempt >= self.max_attempts:
                yield from self._abandon_job(state, job.cluster, job.level,
                                             "max attempts on job timeout")
                continue
            exclude = set(job.excluded_containers)
            exclude.add(job.container)
            yield from self._dispatch_job(
                job.dataset_id, job.cluster, job.record_count, job.level,
                exclude=exclude, attempt=job.attempt + 1,
            )

    def __repr__(self):
        return "ProcessorRootAgent(%r, dispatched=%d, reports=%d)" % (
            self.name, self.jobs_dispatched, self.reports_issued,
        )


def _finding_to_problem_dict(finding):
    """Serialize a finding so a cross job can rebuild problem facts."""
    return {
        "kind": finding.kind,
        "severity": finding.severity,
        "device": finding.device,
        "site": finding.site,
        "metric": finding.detail.get("metric", ""),
        "value": finding.detail.get("value"),
    }


class AnalyzerAgent(Agent):
    """An analysis agent inside a processor-grid container.

    Handles analysis jobs from the root and contract-net CFPs.  For a
    level-1/2 job it fetches its cluster from storage (paying the Table 1
    inference network cost), charges the inference CPU cost per record,
    runs the rule engine over the sample + baseline facts, and returns the
    resulting problems as findings.  For a level-3 job it fetches the
    dataset summary, rebuilds the problem facts supplied by the root, and
    runs the correlation rules.

    Args:
        name: agent name.
        root_name: the grid root to register with (Figure 4).
        knowledge_base: the rule :class:`~repro.rules.rulebase.KnowledgeBase`.
        cost_model: Table 1 cost model.
        register_on_start: send the container profile to the root at setup.
        heartbeat_interval: seconds between liveness beacons to the root
            (``None``, the default, disables heartbeating; give the root
            the same interval for failure detection).
        fetch_timeout: base patience per storage-fetch *attempt* (each
            attempt additionally waits out a transfer allowance sized from
            the query + expected reply); the historical behaviour (one
            flat 60s window, no retries) is the default.
        fetch_retries: extra QUERY_REF attempts after a timed-out fetch
            before the job proceeds with whatever it has (0 = old
            single-shot behaviour).
    """

    def __init__(self, name, root_name, knowledge_base, cost_model=None,
                 register_on_start=True, heartbeat_interval=None,
                 fetch_timeout=60.0, fetch_retries=0):
        super().__init__(name)
        if fetch_timeout <= 0:
            raise ValueError("fetch_timeout must be positive")
        if fetch_retries < 0:
            raise ValueError("fetch_retries must be >= 0")
        self.root_name = root_name
        self.knowledge_base = knowledge_base
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.register_on_start = register_on_start
        self.heartbeat_interval = heartbeat_interval
        self.fetch_timeout = fetch_timeout
        self.fetch_retries = int(fetch_retries)
        self.responder = None
        self.jobs_completed = 0
        self.records_analyzed = 0
        self.rules_fired = 0
        self.heartbeats_sent = 0
        self.fetch_attempts = 0
        self.fetch_retries_used = 0
        self.fetch_failures = 0
        self.fetch_failovers = 0
        #: Primary storage agent name -> its replica's (filled by
        #: :class:`~repro.core.replication.ReplicationService`).
        self.replicas = {}
        #: Optional :class:`repro.core.gossip.AnalyzerGossip` component;
        #: installed by the mesh when the spec enables ``gossip=``.  None
        #: in every default build -- the single branch below is the whole
        #: cost of the feature when disabled.
        self.gossip = None

    def setup(self):
        self.responder = ContractNetResponder(self)
        if self.register_on_start:
            self.send(ACLMessage(
                Performative.INFORM,
                sender=self.name,
                receiver=self.root_name,
                content=self.container.profile().to_content(),
                ontology=CONTAINER_PROFILE.name,
                size_units=self.cost_model.notify_size,
            ))
        analyzer = self

        class Jobs(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.REQUEST,
                    ontology=ANALYSIS_JOB.name,
                ))
                if message is not None:
                    yield from analyzer._run_job(message)

        class Negotiation(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    protocol=CONTRACT_NET,
                ))
                if message is None:
                    return
                if message.performative == Performative.CFP:
                    analyzer.responder.bid(message)
                # ACCEPT/REJECT need no action: the job arrives as REQUEST.

        class Learning(CyclicBehaviour):
            """Accepts rule specs pushed by the interface grid."""

            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology="learn-rule",
                ))
                if message is not None:
                    analyzer._learn_rule(message)

        class Heartbeat(TickerBehaviour):
            def on_tick(self):
                analyzer._send_heartbeat()
                return
                yield  # pragma: no cover - keeps on_tick a generator

        self.add_behaviour(Jobs("jobs"))
        self.add_behaviour(Negotiation("negotiation"))
        self.add_behaviour(Learning("learning"))
        if self.heartbeat_interval is not None:
            self.add_behaviour(Heartbeat(
                period=self.heartbeat_interval, name="heartbeat",
            ))

    def _send_heartbeat(self):
        self.heartbeats_sent += 1
        self.send(ACLMessage(
            Performative.INFORM,
            sender=self.name,
            receiver=self.root_name,
            content=HEARTBEAT.make(
                container=self.container.name,
                agent=self.name,
                sent_at=self.sim.now,
            ),
            ontology=HEARTBEAT.name,
            size_units=0.1,
        ))

    # -- job execution ------------------------------------------------------

    def _run_job(self, message):
        content = ANALYSIS_JOB.validate(message.content)
        span = None
        telemetry = self.telemetry
        if telemetry is not None and message.trace_context is not None:
            trace_id, dispatch_id = message.trace_context
            span = telemetry.recorder.start(
                "analyze", trace_id, parent=dispatch_id, grid="processor",
                host=self.host.name, agent=self.name,
                job_id=content["job_id"], cluster=content["cluster"],
                level=content["level"],
            )
        self.container.busy_agents += 1
        try:
            if content["level"] >= 3:
                findings, analyzed = yield from self._run_cross_job(content)
            else:
                findings, analyzed = yield from self._run_cluster_job(content)
        finally:
            self.container.busy_agents -= 1
        self.jobs_completed += 1
        self.records_analyzed += analyzed
        result = ANALYSIS_RESULT.make(
            job_id=content["job_id"],
            findings=findings,
            records_analyzed=analyzed,
        )
        # Reply to whoever sent the REQUEST -- normally the grid root, but
        # a site gateway dispatching a forwarded job needs the result back
        # at the gateway so it can return it across the site boundary.
        # While the gossip mesh has the root confirmed dead, the result is
        # rerouted to the elected stand-in dispatcher instead of being
        # dropped on the severed link (reconciled on heal).
        receiver = str(message.sender)
        if not (self.gossip is not None
                and self.gossip.intercept_result(dict(result), receiver)):
            self.send(ACLMessage(
                Performative.INFORM,
                sender=self.name,
                receiver=receiver,
                content=dict(result),
                ontology=ANALYSIS_RESULT.name,
                size_units=self.cost_model.notify_size + 0.1 * len(findings),
            ))
        if span is not None:
            telemetry.recorder.end(
                span, findings=len(findings), records=analyzed,
            )

    def _fetch(self, storage_agent, storage_query, size_units,
               conversation_tag, reply_units=0.0):
        """QUERY_REF to ``storage_agent``; returns the INFORM content.

        The analyzer's one fetch ladder.  ``1 + fetch_retries`` attempts
        go to the primary; each rides the reliable channel (plain send
        when none is installed) and waits ``fetch_timeout`` plus a
        transfer allowance sized from the query and the expected reply --
        a big cluster fetch is given the wire time it actually needs
        instead of tripping a spurious retry.  Every attempt reuses the
        same conversation id, so a late reply to an *earlier* attempt
        still completes the fetch; a false retry degrades to extra
        traffic, never to data loss.  Any reply ends the attempts at the
        primary.

        When ``replicas`` names a replica for ``storage_agent``, a primary
        that never answered, or answered with anything but INFORM (the
        platform's FAILURE bounce for a removed agent), gets one more
        attempt at the replica under its own conversation
        ``<tag>-failover-<name>`` with the same patience.
        """
        conversation = "%s-%s" % (conversation_tag, self.name)
        template = MessageTemplate(conversation_id=conversation)
        patience = self.fetch_timeout + 2.0 * (
            size_units + reply_units) / self.host.nic.capacity
        reply = None
        for attempt in range(1 + self.fetch_retries):
            if attempt:
                self.fetch_retries_used += 1
            reply = yield from self._query(
                storage_agent, storage_query, size_units, template, patience)
            if reply is not None:
                break
        replica = self.replicas.get(storage_agent)
        if replica is not None and (
                reply is None or reply.performative != Performative.INFORM):
            self.fetch_failovers += 1
            reply = yield from self._query(
                replica, storage_query, size_units,
                MessageTemplate(conversation_id="%s-failover-%s" % (
                    conversation_tag, self.name)),
                patience)
        if reply is None or reply.performative != Performative.INFORM:
            self.fetch_failures += 1
            return None
        return reply.content

    def _query(self, storage_agent, storage_query, size_units, template,
               patience):
        """One QUERY_REF attempt; the reply, or None after ``patience``."""
        self.fetch_attempts += 1
        self.send_reliable(ACLMessage(
            Performative.QUERY_REF,
            sender=self.name,
            receiver=storage_agent,
            content=storage_query,
            conversation_id=template.conversation_id,
            size_units=size_units,
        ))
        reply = yield from self.receive(template, timeout=patience)
        return reply

    def _run_cluster_job(self, content):
        fetched = yield from self._fetch(
            "storage@" + content["storage_host"],
            {"op": "fetch-cluster", "dataset": content["dataset"],
             "cluster": content["cluster"]},
            size_units=self.cost_model.fetch_query_size
            * max(1, content["record_count"]),
            conversation_tag=content["job_id"],
            reply_units=self.cost_model.fetch_reply_size
            * max(1, content["record_count"]),
        )
        if fetched is None:
            return [], 0
        records = fetched["records"]
        baselines = fetched["baselines"]
        infer_costs = self.cost_model.infer_costs
        for record in records:
            infer_cost = infer_costs[record.request_type]
            if infer_cost.cpu:
                yield self.cpu.use(infer_cost.cpu, label=TaskKind.INFER)
        memory = WorkingMemory(clock=lambda: self.sim.now)
        for record in records:
            for fact in record.to_facts():
                memory.assert_fact(fact)
        for baseline in baselines:
            memory.assert_fact(Fact(
                "baseline",
                device=baseline["device"],
                metric=baseline["metric"],
                instance=baseline["instance"],
                mean=baseline["mean"],
                maximum=baseline["maximum"],
            ))
        groups = self._rule_groups_for(content["cluster"])
        engine = self.knowledge_base.engine_for(memory, groups=groups, max_level=2)
        self.rules_fired += engine.run()
        findings = [
            Finding.from_fact(fact, level=2)
            for fact in memory.facts("problem")
        ]
        return findings, len(records)

    def _run_cross_job(self, content):
        yield from self._scatter_summaries(content, content["shards"])
        cross_cost = self.cost_model.cross_cost()
        if cross_cost.cpu:
            yield self.cpu.use(cross_cost.cpu, label=TaskKind.INFER_CROSS)
        memory = WorkingMemory(clock=lambda: self.sim.now)
        for problem in content.get("problems", ()):
            memory.assert_fact(Fact("problem", **problem))
        engine = self.knowledge_base.engine_for(
            memory, groups=("correlation",), max_level=3,
        )
        self.rules_fired += engine.run()
        findings = [
            Finding.from_fact(fact, level=3)
            for fact in memory.facts("incident")
        ]
        return findings, 0

    def _scatter_summaries(self, content, shards):
        """Gather the summary of every dataset the job names, bounded-fan-out.

        Summaries are fetched in waves of ``SCATTER_FANOUT`` concurrent
        fetches (each a spawned process with its own conversation id, so
        replies cannot cross wires); a wave must settle before the next
        starts, bounding both the NIC burst and the storage-grid load.
        The fetches end with the job: killing the job's behaviour (agent
        stop, container kill) kills the wave it is waiting on, so no fetch
        outlives its agent and retries on an undeployed one.
        """
        for start in range(0, len(shards), SCATTER_FANOUT):
            wave = shards[start:start + SCATTER_FANOUT]
            processes = []
            for offset, (storage_host, dataset_id) in enumerate(wave):
                processes.append(self.sim.spawn(
                    self._fetch(
                        "storage@" + storage_host,
                        {"op": "fetch-summary", "dataset": dataset_id},
                        size_units=self.cost_model.cross_query_size,
                        conversation_tag="%s-s%d" % (
                            content["job_id"], start + offset),
                        reply_units=self.cost_model.cross_reply_size,
                    ),
                    name="%s/scatter-fetch" % self.name,
                ))
            try:
                for process in processes:
                    yield process
            finally:
                for process in processes:
                    process.kill()  # no-op once finished

    def _learn_rule(self, message):
        """Install a rule shipped as a declarative spec (data, not code)."""
        from repro.rules.catalog import RuleSpec

        try:
            rule = RuleSpec.from_dict(message.content).build()
        except (KeyError, ValueError, TypeError) as exc:
            self.reply_to(message, Performative.FAILURE,
                          content={"reason": str(exc)})
            return
        if rule.name in self.knowledge_base:
            self.reply_to(message, Performative.REFUSE,
                          content={"reason": "rule %r already known" % rule.name})
            return
        self.knowledge_base.learn(rule)
        self.reply_to(message, Performative.CONFIRM,
                      content={"rule": rule.name})

    def _rule_groups_for(self, cluster):
        """Which rule groups to run for a cluster (knowledge selection)."""
        if cluster in self.knowledge_base.groups():
            return (cluster,)
        return None  # non-group clustering: run all level<=2 rules

    def __repr__(self):
        return "AnalyzerAgent(%r, jobs=%d, records=%d)" % (
            self.name, self.jobs_completed, self.records_analyzed,
        )
