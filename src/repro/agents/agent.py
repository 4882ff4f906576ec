"""The agent base class: identity, mailbox, behaviours.

Agents live inside a container (which binds them to a host) and interact
with the world only through ACL messages and explicit resource usage on
their host.  Behaviours are simulation processes; the agent tracks them so
it can be stopped cleanly.
"""

from repro.agents.acl import ACLMessage, AgentId, MessageTemplate

_MATCH_ALL = MessageTemplate()


class Agent:
    """Base class for all agents in the reproduction.

    Subclasses typically override :meth:`setup` to install behaviours.

    Attributes:
        aid: the agent's :class:`~repro.agents.acl.AgentId`.
        container: the :class:`~repro.agents.container.AgentContainer`
            hosting the agent (set at deploy time).
    """

    def __init__(self, name):
        self.aid = AgentId(name)
        self.container = None
        self.alive = False
        self._queue = []
        self._waiters = []  # list of (template, SimEvent)
        self._behaviours = []
        self.messages_received = 0
        self.messages_sent = 0

    # -- identity / environment -------------------------------------------

    @property
    def name(self):
        return self.aid.name

    @property
    def platform(self):
        if self.container is None:
            raise RuntimeError("agent %s is not deployed" % self.name)
        return self.container.platform

    @property
    def sim(self):
        return self.platform.sim

    @property
    def host(self):
        return self.container.host

    @property
    def cpu(self):
        return self.container.host.cpu

    @property
    def disk(self):
        return self.container.host.disk

    @property
    def telemetry(self):
        """The platform's flight recorder, or ``None`` when telemetry is
        off (callers must guard -- the off path stays zero-overhead)."""
        return self.container.platform.telemetry

    # -- lifecycle -----------------------------------------------------------

    def setup(self):
        """Install initial behaviours; called when the agent is deployed."""

    def start(self):
        """Called by the container after deployment."""
        self.alive = True
        self.setup()

    def stop(self):
        """Kill all behaviours and mark the agent dead."""
        if not self.alive:
            return
        self.alive = False
        for behaviour in list(self._behaviours):
            behaviour.kill()
        self._behaviours = []

    # -- behaviours -----------------------------------------------------------

    def add_behaviour(self, behaviour):
        """Attach and immediately start a behaviour."""
        if self.container is None:
            raise RuntimeError(
                "deploy agent %s into a container before adding behaviours"
                % self.name
            )
        behaviour.attach(self)
        self._behaviours.append(behaviour)
        behaviour.start()
        return behaviour

    def behaviours(self):
        return list(self._behaviours)

    def _behaviour_finished(self, behaviour):
        try:
            self._behaviours.remove(behaviour)
        except ValueError:
            pass

    # -- messaging --------------------------------------------------------------

    def send(self, message):
        """Hand a message to the platform MTS (fire-and-forget)."""
        self.messages_sent += 1
        self.platform.send(message)

    def send_batch(self, messages):
        """Hand several messages to the MTS at once.

        Same-destination-host wire messages are shipped as one aggregate
        transfer (see :meth:`AgentPlatform.send_batch`).
        """
        messages = list(messages)
        self.messages_sent += len(messages)
        self.platform.send_batch(messages)

    def send_reliable(self, message):
        """Like :meth:`send`, but over the platform's reliable channel
        (acked + retransmitted + dead-lettered) when one is installed."""
        self.messages_sent += 1
        self.platform.send_reliable(message)

    def send_batch_reliable(self, messages):
        """Like :meth:`send_batch`, but via the reliable channel when
        installed; otherwise byte-identical to :meth:`send_batch`."""
        messages = list(messages)
        self.messages_sent += len(messages)
        self.platform.send_batch_reliable(messages)

    def reply_to(self, message, performative, content=None, size_units=None,
                 reliable=False):
        """Build and send a reply to ``message``.

        ``reliable=True`` routes the reply over the platform's reliable
        channel when one is installed (plain send otherwise), for replies
        whose loss the requester cannot cheaply detect -- e.g. large
        storage fetch results.
        """
        reply = message.make_reply(performative, content, size_units)
        if reliable:
            self.send_reliable(reply)
        else:
            self.send(reply)
        return reply

    def deliver(self, message):
        """Called by the container when a message arrives for this agent."""
        self.messages_received += 1
        for index, (template, event) in enumerate(self._waiters):
            if template.match(message) and not event.triggered:
                del self._waiters[index]
                event.trigger(message)
                return
        self._queue.append(message)

    def receive_nowait(self, template=None):
        """Pop the first queued message matching ``template``, or None."""
        template = template if template is not None else _MATCH_ALL
        for index, message in enumerate(self._queue):
            if template.match(message):
                return self._queue.pop(index)
        return None

    def receive(self, template=None, timeout=None):
        """Wait for a matching message (process generator).

        Returns the message, or ``None`` if ``timeout`` elapsed first.
        """
        template = template if template is not None else _MATCH_ALL
        queued = self.receive_nowait(template)
        if queued is not None:
            return queued
        event = self.sim.event("recv@" + self.name)
        entry = (template, event)
        self._waiters.append(entry)
        timer = None
        if timeout is not None:
            timer = self.sim.schedule(timeout, self._expire_waiter,
                                      (template, event))
        try:
            result = yield event
        finally:
            # If the waiting process was killed (agent stop), drop the
            # stale waiter so it cannot swallow a future message; a timer
            # that lost the race to a message has nothing left to do.
            if timer is not None:
                timer.cancel()
            try:
                self._waiters.remove(entry)
            except ValueError:
                pass
        return result

    def _expire_waiter(self, template, event):
        if event.triggered:
            return
        try:
            self._waiters.remove((template, event))
        except ValueError:
            pass
        event.trigger(None)

    @property
    def mailbox_size(self):
        return len(self._queue)

    def __repr__(self):
        where = self.container.name if self.container else "undeployed"
        return "%s(%r @ %s)" % (type(self).__name__, self.name, where)
