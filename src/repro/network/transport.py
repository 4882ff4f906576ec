"""Message transport over the simulated topology.

Semantics (see DESIGN.md section 5):

* the sender's NIC *queues* the payload -- a busy NIC delays further
  sends, which is how network bottlenecks emerge;
* the link adds latency plus size/bandwidth transit time;
* the receiver's NIC is *charged* the payload units (accounting without
  queueing -- receive-side contention is negligible at the paper's scale);
* the handler bound to the destination port is invoked with the message.

One delivery rule (DESIGN.md section 5.1 "Transport transfers"): a
*transfer* is the messages of one flow -- ``(sender host, destination
host, destination port, ledger label)`` -- that cross the wire together.
It makes one NIC request for the summed units and, from the start of NIC
service, arrives after ``total / capacity + link.transit_time(total)``.
A zero-unit transfer skips the NIC and arrives after the link latency.
:meth:`Transport.send` and :meth:`~Transport.post` make a transfer of one
message; :meth:`~Transport.send_batch` and :meth:`~Transport.post_batch`
make one transfer per flow of the call (the paper's "aggregate before
transfer", section 3).  Every transfer is launched when it is called, so
the sender's NIC serves transfers in send order.

On arrival each message is judged on its own: it survives an independent
Bernoulli loss draw from the shared ``"transport-loss"`` RNG stream, and
partitions, a down destination host and an unbound port are checked per
message.  An unknown or down sender drops the whole transfer at launch.
Every failure resolves as a :class:`DeliveryError`.
"""

from repro.network.addressing import Address


class DeliveryError(Exception):
    """A message could not be delivered."""

    def __init__(self, message, reason):
        super().__init__("%s (message %s -> %s)" % (reason, message.sender, message.dest))
        self.message = message
        self.reason = reason


class Message:
    """A payload travelling between two (host, port) endpoints.

    Args:
        sender / dest: :class:`~repro.network.addressing.Address`.
        payload: arbitrary Python object (records batch, ACL message, ...).
        size_units: abstract network units -- the quantity charged to NICs
            and divided by bandwidth for transit time.
        protocol: symbolic protocol name ("snmp", "http", "smtp", "acl").
        label: ledger label for the NIC charge (defaults to protocol).
    """

    def __init__(self, sender, dest, payload, size_units, protocol="raw", label=None):
        if size_units < 0:
            raise ValueError("size_units must be >= 0")
        self.sender = sender
        self.dest = dest
        self.payload = payload
        self.size_units = float(size_units)
        self.protocol = protocol
        self.label = label if label is not None else protocol
        self.sent_at = None
        self.delivered_at = None

    @property
    def latency(self):
        if self.sent_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at

    def __repr__(self):
        return "Message(%s->%s, %s, %g units)" % (
            self.sender,
            self.dest,
            self.protocol,
            self.size_units,
        )


class _Transfer:
    """The messages of one flow that cross the wire together.

    ``sinks[i]`` records where message *i*'s outcome goes: ``None``
    (fire-and-forget), a :class:`SimEvent` to trigger, or an
    ``(_OutcomeCollector, index)`` pair from :meth:`Transport.send_batch`.
    """

    __slots__ = ("transport", "messages", "sinks", "src", "dst", "link", "total")

    def __init__(self, transport, messages, sinks, src, dst, link, total):
        self.transport = transport
        self.messages = messages
        self.sinks = sinks
        self.src = src
        self.dst = dst
        self.link = link
        self.total = total

    def _nic_started(self, request):
        self.transport._depart(self)


class _OutcomeCollector:
    """Gathers per-message outcomes for one :meth:`Transport.send_batch`."""

    __slots__ = ("event", "results", "remaining")

    def __init__(self, event, count):
        self.event = event
        self.results = [None] * count
        self.remaining = count

    def resolve(self, index, value):
        self.results[index] = value
        self.remaining -= 1
        if self.remaining == 0:
            self.event.trigger(self.results)


class Transport:
    """Delivers messages between bound host ports with full cost accounting.

    Args:
        network: the :class:`~repro.network.topology.Network` to route over.
    """

    def __init__(self, network):
        self.network = network
        self.sim = network.sim
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.units_carried = 0.0
        self.transfers = 0
        self.messages_coalesced = 0  # messages that shared a transfer
        self._loss_random = None  # cached "transport-loss" stream .random

    # -- submission ----------------------------------------------------------

    def send(self, message):
        """Asynchronously deliver ``message``.

        Returns a :class:`~repro.simkernel.events.SimEvent` that triggers
        with the message on delivery, or with a :class:`DeliveryError` on
        failure (the caller decides whether to inspect it).
        """
        done = self.sim.event("delivery")
        self._launch([message], [done])
        return done

    def post(self, message):
        """Fire-and-forget :meth:`send`: no completion event is allocated.

        The hot path for protocols that surface failures by other means
        (SNMP timeouts, platform FAILURE bounces).
        """
        self._launch([message], [None])

    def send_batch(self, messages):
        """Ship ``messages`` as one transfer per flow.

        Messages sharing a flow -- same (sender host, destination host,
        destination port, label) -- cross the wire together and arrive
        together.  Returns a SimEvent that triggers with the list of
        per-message outcomes (Message or DeliveryError, in input order)
        once every message has been resolved.
        """
        messages = list(messages)
        done = self.sim.event("delivery-batch")
        if not messages:
            done.trigger([])
            return done
        collector = _OutcomeCollector(done, len(messages))
        self._launch_flows(messages, [(collector, index)
                                      for index in range(len(messages))])
        return done

    def post_batch(self, messages):
        """Fire-and-forget :meth:`send_batch` (no outcome collection)."""
        messages = list(messages)
        self._launch_flows(messages, [None] * len(messages))

    def send_and_wait(self, message):
        """Process helper: ``result = yield from transport.send_and_wait(m)``.

        Raises :class:`DeliveryError` inside the calling process on failure.
        """
        outcome = yield self.send(message)
        if isinstance(outcome, DeliveryError):
            raise outcome
        return outcome

    # -- delivery engine -----------------------------------------------------

    def _launch_flows(self, messages, sinks):
        """Launch one transfer per flow, flows in order of first message."""
        flows = {}
        for message, sink in zip(messages, sinks):
            key = (message.sender.host, message.dest.host,
                   message.dest.port, message.label)
            flow = flows.get(key)
            if flow is None:
                flows[key] = ([message], [sink])
            else:
                flow[0].append(message)
                flow[1].append(sink)
        for flow_messages, flow_sinks in flows.values():
            self._launch(flow_messages, flow_sinks)

    def _launch(self, messages, sinks):
        """Put one transfer on the sender's NIC queue."""
        now = self.sim.now
        total = 0.0
        for message in messages:
            message.sent_at = now
            total += message.size_units
        count = len(messages)
        self.messages_sent += count
        self.transfers += 1
        if count > 1:
            self.messages_coalesced += count
        first = messages[0]
        hosts = self.network.hosts
        src = hosts.get(first.sender.host)
        if src is None:
            self._abort(messages, sinks, "unknown sender host")
            return
        dst = hosts.get(first.dest.host)
        if dst is None:
            self._abort(messages, sinks, "unknown destination host")
            return
        if not src.up:
            self._abort(messages, sinks, "sender host down")
            return
        transfer = _Transfer(self, messages, sinks, src, dst,
                             self.network.link_between(src, dst), total)
        if total > 0:
            src.nic.acquire(total, label=first.label,
                            on_start=transfer._nic_started)
        else:
            self._depart(transfer)

    def _depart(self, transfer):
        """NIC service started: arrive after serialization plus transit."""
        total = transfer.total
        delay = (total / transfer.src.nic.capacity
                 + transfer.link.transit_time(total))
        if delay > 0:
            self.sim.schedule(delay, self._arrive, (transfer,))
        else:
            self._arrive(transfer)

    def _arrive(self, transfer):
        for message, sink in zip(transfer.messages, transfer.sinks):
            self._arrive_one(transfer, message, sink)

    def _arrive_one(self, transfer, message, sink):
        """One message reaches the destination edge: loss, checks, handoff."""
        link = transfer.link
        if link.loss_rate > 0:
            loss_random = self._loss_random
            if loss_random is None:
                loss_random = self.sim.rng("transport-loss").random
                self._loss_random = loss_random
            if loss_random() < link.loss_rate:
                self._drop(message, sink, "lost in transit")
                return
        dst = transfer.dst
        # Site partitions sever traffic at the destination edge: messages
        # already in flight when the partition starts are lost too, like a
        # real cut fibre.  The set membership guard keeps the healthy path
        # free of any per-message cost (partitioned_sites is normally empty).
        if self.network.partitioned_sites and \
                self.network.severed(transfer.src, dst):
            self._drop(message, sink, "site partitioned")
            return
        # Host-island partitions (split-brain) sever at the same edge,
        # under the same empty-set gating.
        if self.network.partitioned_hosts and \
                self.network.host_severed(transfer.src, dst):
            self._drop(message, sink, "host partitioned")
            return
        if not dst.up:
            self._drop(message, sink, "destination host down")
            return
        handler = dst.handler_for(message.dest.port)
        if handler is None:
            self._drop(message, sink, "port %r not bound on %s" % (
                message.dest.port, dst.name))
            return
        if message.size_units > 0:
            dst.nic.charge(message.size_units, label=message.label)
        message.delivered_at = self.sim.now
        self.messages_delivered += 1
        self.units_carried += message.size_units
        handler(message)
        self._resolve(sink, message)

    def _abort(self, messages, sinks, reason):
        """Drop every message of a transfer that failed pre-flight checks."""
        for message, sink in zip(messages, sinks):
            self._drop(message, sink, reason)

    def _drop(self, message, sink, reason):
        self.messages_dropped += 1
        self._resolve(sink, DeliveryError(message, reason))

    @staticmethod
    def _resolve(sink, value):
        if sink is None:
            return
        if type(sink) is tuple:
            sink[0].resolve(sink[1], value)
        else:
            sink.trigger(value)

    # -- convenience ---------------------------------------------------------

    def address(self, host_name, port):
        return Address(host_name, port)

    def stats(self):
        return {
            "sent": self.messages_sent,
            "delivered": self.messages_delivered,
            "dropped": self.messages_dropped,
            "units_carried": self.units_carried,
            "transfers": self.transfers,
            "coalesced": self.messages_coalesced,
        }

    def __repr__(self):
        return "Transport(sent=%d, delivered=%d, dropped=%d, transfers=%d)" % (
            self.messages_sent,
            self.messages_delivered,
            self.messages_dropped,
            self.transfers,
        )
