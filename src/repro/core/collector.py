"""The Collector Grid (CG).

Collector agents own :class:`~repro.core.records.CollectionGoal` goals --
"extracting managed object values from one or more pieces of equipment in
the network between time intervals" -- and realize them through an SNMP
interface.  Each poll:

1. charges the Table 1 *Request* CPU cost on the collector's host;
2. performs the SNMP GET (network units at both ends of the poll);
3. normalizes the varbinds into the common representation;
4. optionally runs the *Parse* task locally ("The collector grid can
   contain agents that execute some local information analyses" -- and in
   the multi-agent/grid models of Figure 6, parsing at the collector is
   what shrinks the shipped data);
5. ships records to the classifier grid in protocol envelopes.
"""

from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import OneShotBehaviour
from repro.core.costs import DEFAULT_COST_MODEL, TaskKind
from repro.core.records import ManagementRecord
from repro.network.protocols import HTTP
from repro.snmp.manager import SnmpClient, SnmpTimeout


class CollectorAgent(Agent):
    """A collector with goals, an SNMP interface and a shipping channel.

    Args:
        name: agent name.
        goals: list of :class:`~repro.core.records.CollectionGoal`.
        classifier_name: agent name of the classifier to ship to.
        cost_model: the Table 1 :class:`~repro.core.costs.CostModel`.
        parse_locally: run the Parse task at the collector (True in the
            multi-agent and grid models; False in the centralized model,
            which ships raw data).
        device_specs: optional map device name -> (interface_count,
            process_slots) used to build poll OID lists; defaults applied
            otherwise.  Held, not copied: every collector of a deployment
            reads the one table the deployment built.
        batch_size: records per shipped envelope.
        protocol: shipping :class:`~repro.network.protocols.ProtocolSpec`.
        poll_retries: extra SNMP attempts after a timeout before the poll
            is counted as failed (lossy links are retried, not fatal).
        classifier_router: optional callable ``record -> classifier agent
            name`` used by the sharded grid to route each record to its
            shard's classifier lane; ``None`` (the default) ships every
            record to ``classifier_name`` on the exact single-envelope
            path the unsharded reproduction pins byte-identical.
    """

    def __init__(
        self,
        name,
        goals,
        classifier_name,
        cost_model=None,
        parse_locally=True,
        device_specs=None,
        batch_size=1,
        protocol=HTTP,
        poll_retries=2,
        classifier_router=None,
    ):
        super().__init__(name)
        self.goals = list(goals)
        self.classifier_name = classifier_name
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.parse_locally = parse_locally
        self.device_specs = device_specs if device_specs is not None else {}
        self.batch_size = max(1, batch_size)
        self.protocol = protocol
        self.poll_retries = max(0, poll_retries)
        self.classifier_router = classifier_router
        self.snmp = None
        self.poll_retries_used = 0
        self.polls_completed = 0
        self.polls_failed = 0
        self.records_shipped = 0
        self._buffer = []
        self._active_goals = 0
        self.idle_event = None

    def setup(self):
        self.snmp = SnmpClient(
            self.host, self.platform.transport, client_id=self.name,
        )
        self.idle_event = self.sim.event(self.name + ".idle")
        self._active_goals = len(self.goals)
        if self._active_goals == 0:
            self.idle_event.trigger(self)
            return
        for index, goal in enumerate(self.goals):
            self.add_behaviour(_GoalBehaviour(goal, name="goal-%d" % index))

    # -- goal execution (called from behaviours) ----------------------------

    def add_goal(self, goal):
        """Install a new goal at runtime (interface-grid feedback)."""
        self._active_goals += 1
        if self.idle_event is not None and self.idle_event.triggered:
            self.idle_event = self.sim.event(self.name + ".idle")
        self.add_behaviour(_GoalBehaviour(goal, name="goal-late-%d" % self._active_goals))

    def poll_once(self, goal):
        """One poll of one goal (process generator): request -> record."""
        request_cost = self.cost_model.request_cost(goal.request_type)
        if request_cost.cpu:
            yield self.cpu.use(request_cost.cpu, label=TaskKind.REQUEST)
        interface_count, process_slots = self.device_specs.get(
            goal.device_name, (2, 3),
        )
        oids = goal.oids(interface_count=interface_count,
                         process_slots=process_slots)
        response = None
        for attempt in range(1 + self.poll_retries):
            try:
                response = yield from self.snmp.get(
                    goal.device_name,
                    oids,
                    request_size_units=self.cost_model.poll_request_size,
                    response_size_units=self.cost_model.poll_response_size,
                )
                break
            except SnmpTimeout:
                if attempt < self.poll_retries:
                    self.poll_retries_used += 1
                    continue
        if response is None:
            self.polls_failed += 1
            return None
        record = ManagementRecord.from_varbinds(
            device=goal.device_name,
            site=self._device_site(goal.device_name),
            request_type=goal.request_type,
            group=goal.group,
            varbinds=response.varbinds,
            collected_at=self.sim.now,
            size_units=self.cost_model.raw_record_size,
        )
        if self.parse_locally:
            parse_cost = self.cost_model.parse_cost(goal.request_type)
            if parse_cost.cpu:
                yield self.cpu.use(parse_cost.cpu, label=TaskKind.PARSE)
            record = record.parse(self.cost_model.parsed_record_size)
        self.polls_completed += 1
        return record

    def _device_site(self, device_name):
        try:
            return self.platform.network.host(device_name).site.name
        except KeyError:
            return ""

    def ship(self, records):
        """Send records to the classifier grid in protocol envelopes.

        Unsharded (no router): one envelope to ``classifier_name``.
        Sharded: records group by the router's target and each shard's
        records leave in their own envelope (target order sorted for
        determinism); envelopes still ride one ``send_batch_reliable``
        call so same-host shards share an aggregate wire transfer.
        """
        records = [record for record in records if record is not None]
        if not records:
            return
        if self.classifier_router is None:
            groups = [(self.classifier_name, records)]
        else:
            by_target = {}
            for record in records:
                by_target.setdefault(self.classifier_router(record), []).append(
                    record)
            groups = sorted(by_target.items())
        messages = []
        telemetry = self.telemetry
        for target, group in groups:
            payload_units = sum(record.size_units for record in group)
            wire_units = self.protocol.size(payload_units)
            # Batched shipping lane: envelopes shipped in the same instant
            # to the same classifier host travel as one aggregate wire
            # transfer.  Reliable variant: with a channel installed the
            # envelope is acked, retransmitted on loss and dead-lettered
            # (never silently lost).
            message = ACLMessage(
                Performative.INFORM,
                sender=self.name,
                receiver=target,
                content={"op": "classify-batch", "records": group},
                ontology="collected-batch",
                size_units=wire_units,
            )
            if telemetry is not None:
                # One trace per shipped envelope: a closed "collect" span
                # covering poll time, and an open "ship" span the
                # classifier (or the dead-letter hook) will close.  The
                # envelope names the ship span so the receiving end can
                # pick up the chain.
                recorder = telemetry.recorder
                trace_id = recorder.new_trace()
                collect = recorder.start(
                    "collect", trace_id, grid="collector", host=self.host.name,
                    agent=self.name,
                    t_start=min(record.collected_at for record in group),
                    records=len(group),
                )
                recorder.end(collect)
                ship = recorder.start(
                    "ship", trace_id, parent=collect, grid="collector",
                    host=self.host.name, agent=self.name,
                    records=len(group), size_units=wire_units,
                )
                if ship is not None:
                    message.trace_context = (trace_id, ship.span_id)
            messages.append(message)
        self.send_batch_reliable(messages)
        self.records_shipped += len(records)

    def _buffer_and_ship(self, record, force=False):
        if record is not None:
            self._buffer.append(record)
        if self._buffer and (force or len(self._buffer) >= self.batch_size):
            batch, self._buffer = self._buffer, []
            self.ship(batch)

    def _goal_finished(self):
        self._active_goals -= 1
        if self._active_goals == 0:
            self._buffer_and_ship(None, force=True)
            if not self.idle_event.triggered:
                self.idle_event.trigger(self)

    def __repr__(self):
        return "CollectorAgent(%r, polls=%d, shipped=%d)" % (
            self.name, self.polls_completed, self.records_shipped,
        )


class _GoalBehaviour(OneShotBehaviour):
    """Executes one goal: count polls spaced by the goal's interval."""

    def __init__(self, goal, name):
        super().__init__(name)
        self.goal = goal

    def action(self):
        agent = self.agent
        goal = self.goal
        if goal.start_after > 0:
            yield goal.start_after
        polls_remaining = goal.count
        try:
            while polls_remaining is None or polls_remaining > 0:
                record = yield from agent.poll_once(goal)
                agent._buffer_and_ship(record)
                if polls_remaining is not None:
                    polls_remaining -= 1
                    if polls_remaining == 0:
                        break
                yield goal.interval
        finally:
            agent._goal_finished()
