"""End-to-end reliable delivery over the lossy transport.

The base :class:`~repro.network.transport.Transport` is deliberately
unreliable: links draw per-message Bernoulli losses and a down host drops
everything in flight.  Protocols that care (SNMP polls) retry themselves;
everything else is fire-and-forget.  The paper's survivability claim
("grids of agents tolerate imperfect WANs") needs more for the record
pipeline: a lost collector envelope silently loses collected records.

:class:`ReliableChannel` layers a sequenced, acknowledged, retransmitting
delivery protocol on top of the transport without touching its
timing-exact wire-batch lanes:

* every payload message is wrapped in an :class:`Envelope` carrying a
  per-``(sender host, destination host, destination port)`` *stream* id
  and a monotonically increasing sequence number;
* envelopes travel to a channel-owned data port on the destination host;
  the channel unwraps them there, suppresses duplicates by (stream, seq),
  hands first copies to the *original* port's handler, and returns an ACK
  to a channel-owned ack port on the sender host;
* the sender retransmits unacknowledged envelopes on a timeout that backs
  off exponentially per attempt; after ``max_attempts`` the message moves
  to the **dead-letter queue** with full accounting (attempts, first/last
  send time, reason) instead of vanishing;
* both data and ACK messages ride the normal transport (NIC charges, link
  latency, loss draws all apply), so reliability is paid for, not free.

The protocol is at-least-once below the suppression point and exactly-once
above it: a receiver handler never sees the same (stream, seq) twice, but
an envelope whose ACKs were all lost can be delivered *and* dead-lettered
-- accounting therefore treats "classified + dead-lettered >= shipped" as
the no-silent-loss invariant, never exact equality.

**Redelivery** (``redelivery=True``) closes the remaining gap from
at-least-once to *effectively-always*: instead of terminating at the
dead-letter queue, exhausted envelopes are **parked per destination
host** and a capped-exponential-backoff *heal probe* watches the
destination; once it answers (host back up), every parked envelope is
re-shipped under its **original** (stream, seq) -- so receiver dedup
still guarantees exactly-once above the suppression point even when a
delivered-but-unacked envelope takes the redelivery path.  Each parked
envelope keeps a total delivery budget (``redelivery_give_up_after``
seconds from its first transmission); past it the channel gives up for
good (``redelivery_gave_up`` accounting + hook).  With every outage
healing inside the budget the invariant tightens to ``classified ==
shipped``: zero permanently-lost batches.

The channel is opt-in (``GridTopologySpec(reliability=True)``); when it is
not installed the agent helpers fall back to the plain fire-and-forget
paths, byte-identical with pre-channel behaviour.
"""

from repro.network.addressing import Address
from repro.network.transport import Message

#: Channel-owned ports bound on demand on participating hosts.
DATA_PORT = "rel-data"
ACK_PORT = "rel-ack"


class Envelope:
    """The reliable-channel header wrapped around one payload message."""

    __slots__ = ("stream", "seq", "port", "payload", "attempt")

    def __init__(self, stream, seq, port, payload, attempt):
        self.stream = stream
        self.seq = seq
        self.port = port
        self.payload = payload
        self.attempt = attempt

    def __repr__(self):
        return "Envelope(%s#%d -> port %r, attempt %d)" % (
            "/".join(self.stream), self.seq, self.port, self.attempt,
        )


class _Ack:
    """Receiver -> sender acknowledgement for one (stream, seq)."""

    __slots__ = ("stream", "seq")

    def __init__(self, stream, seq):
        self.stream = stream
        self.seq = seq


class _Pending:
    """Sender-side state for one unacknowledged envelope."""

    __slots__ = ("stream", "seq", "message", "attempts", "first_sent",
                 "last_sent", "timer")

    def __init__(self, stream, seq, message, now):
        self.stream = stream
        self.seq = seq
        self.message = message
        self.attempts = 0
        self.first_sent = now
        self.last_sent = now
        self.timer = None


class DeadLetter:
    """One message the channel exhausted its retransmissions on.

    ``status`` tracks the redelivery lifecycle:

    ``"dead"``
        terminal -- redelivery is off; the message is lost (accounted).
    ``"parked"``
        waiting for the destination host to heal; a probe is armed.
    ``"redelivered"``
        the destination healed and the envelope was re-shipped under its
        original (stream, seq); receiver dedup keeps it exactly-once.
    ``"gave-up"``
        the delivery budget (``redelivery_give_up_after``) ran out while
        parked; terminal.
    """

    __slots__ = ("message", "stream", "seq", "attempts", "first_sent",
                 "dead_at", "reason", "status", "redelivered_at")

    def __init__(self, pending, dead_at, reason):
        self.message = pending.message
        self.stream = pending.stream
        self.seq = pending.seq
        self.attempts = pending.attempts
        self.first_sent = pending.first_sent
        self.dead_at = dead_at
        self.reason = reason
        self.status = "dead"
        self.redelivered_at = None

    @property
    def terminal(self):
        """True when the channel will make no further delivery attempt."""
        return self.status in ("dead", "gave-up")

    def __repr__(self):
        return "DeadLetter(%s#%d, attempts=%d, %s, reason=%r)" % (
            "/".join(self.stream), self.seq, self.attempts, self.status,
            self.reason,
        )


class ReliableChannel:
    """Acked, deduplicated, retransmitting delivery over a Transport.

    Args:
        transport: the underlying (lossy) transport.
        ack_timeout: seconds to wait for an ACK before the first
            retransmission; doubles by ``backoff`` per further attempt.
        backoff: multiplicative retransmission backoff per attempt.
        max_attempts: total transmissions (first + retransmits) before a
            message is dead-lettered.
        ack_size_units: network units charged for each ACK message.
        redelivery: park dead-lettered envelopes per destination host and
            re-ship them once the destination heals (default off -- the
            dead-letter queue stays terminal, pre-redelivery behaviour).
        redelivery_interval: first heal-probe delay after a park (defaults
            to ``2 * ack_timeout``).
        redelivery_backoff: multiplicative probe backoff while the
            destination stays down.
        redelivery_max_interval: probe-interval cap (the backoff never
            stretches probes further apart than this).
        redelivery_give_up_after: total delivery budget in seconds from a
            message's *first* transmission; parked envelopes past it are
            given up for good.  ``None`` parks forever.
    """

    def __init__(self, transport, ack_timeout=2.0, backoff=2.0,
                 max_attempts=6, ack_size_units=0.1, redelivery=False,
                 redelivery_interval=None, redelivery_backoff=2.0,
                 redelivery_max_interval=30.0,
                 redelivery_give_up_after=600.0):
        if ack_timeout <= 0:
            raise ValueError("ack_timeout must be positive")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if redelivery_interval is None:
            redelivery_interval = 2.0 * ack_timeout
        if redelivery_interval <= 0:
            raise ValueError("redelivery_interval must be positive")
        if redelivery_backoff < 1.0:
            raise ValueError("redelivery_backoff must be >= 1")
        if redelivery_max_interval < redelivery_interval:
            raise ValueError(
                "redelivery_max_interval must be >= redelivery_interval")
        if redelivery_give_up_after is not None \
                and redelivery_give_up_after <= 0:
            raise ValueError(
                "redelivery_give_up_after must be positive (or None)")
        self.transport = transport
        self.sim = transport.sim
        self.network = transport.network
        self.ack_timeout = ack_timeout
        self.backoff = backoff
        self.max_attempts = max_attempts
        self.ack_size_units = ack_size_units
        self.redelivery = bool(redelivery)
        self.redelivery_interval = redelivery_interval
        self.redelivery_backoff = redelivery_backoff
        self.redelivery_max_interval = redelivery_max_interval
        self.redelivery_give_up_after = redelivery_give_up_after
        self._next_seq = {}      # stream -> next sequence number
        self._pending = {}       # (stream, seq) -> _Pending
        self._seen = {}          # receiver side: stream -> set(seq)
        self._data_hosts = set()
        self._ack_hosts = set()
        self.dead_letters = []
        self._dead_by_key = {}   # (stream, seq) -> DeadLetter (dedup)
        self._parked = {}        # dest host name -> [DeadLetter]
        self._probe_interval = {}  # dest host name -> current probe delay
        self._probe_armed = set()  # dest hosts with a probe in flight
        self.on_dead_letter = None        # optional hook(dead_letter)
        self.on_redelivered = None        # optional hook(dead_letter)
        self.on_redelivery_gave_up = None  # optional hook(dead_letter)
        # -- accounting (polled through stats()) -------------------------
        self.messages_sent = 0
        self.messages_delivered = 0   # first copies handed to handlers
        self.messages_acked = 0       # pending entries settled by an ACK
        self.retransmits = 0
        self.dup_drops = 0
        self.acks_sent = 0
        self.undeliverable = 0        # arrived but original port unbound
        self.redelivered = 0          # parked envelopes re-shipped
        self.redelivery_gave_up = 0   # parked envelopes past the budget
        self.heal_probes = 0
        self.latency_sum = 0.0        # first-send -> ack, per acked message
        self.latency_max = 0.0

    # -- submission --------------------------------------------------------

    def post(self, message):
        """Reliably deliver ``message`` (fire-and-forget with retries).

        The message must be addressed to a real (host, port) endpoint; the
        channel owns delivery from here: the caller gets no completion
        event, but the message is guaranteed to land exactly once at the
        destination handler unless it ends up in :attr:`dead_letters`.
        """
        self._wire(self._enroll(message), first=True)

    def post_batch(self, messages):
        """Reliably deliver several messages.

        First transmissions of same-flow messages share an aggregate wire
        batch (one NIC use + one transit), mirroring
        :meth:`Transport.post_batch`; retransmissions go out individually.
        """
        pendings = [self._enroll(message) for message in messages]
        wires = [self._make_wire(pending, first=True) for pending in pendings]
        if wires:
            self.transport.post_batch(wires)

    def pending_count(self):
        return len(self._pending)

    def parked_count(self, host=None):
        """Dead-lettered envelopes currently waiting for a heal.

        With ``host`` given, only envelopes parked against that
        destination host -- the health scorecards use this to pin the
        degradation on the host that is refusing delivery.
        """
        if host is not None:
            return len(self._parked.get(host, ()))
        return sum(len(queue) for queue in self._parked.values())

    def permanently_dead(self):
        """Dead letters the channel will never attempt again.

        With redelivery off this is the whole dead-letter queue; with it
        on, only ``gave-up`` entries -- parked and redelivered envelopes
        are still (or were) in flight.  The heal-complete invariant
        ``classified == shipped`` holds exactly when this is empty after
        the run drains.
        """
        return [dead for dead in self.dead_letters if dead.terminal]

    # -- sender side -------------------------------------------------------

    def _enroll(self, message):
        stream = (message.sender.host, message.dest.host, message.dest.port)
        seq = self._next_seq.get(stream, 0)
        self._next_seq[stream] = seq + 1
        pending = _Pending(stream, seq, message, self.sim.now)
        self._pending[(stream, seq)] = pending
        self._bind_endpoints(message.sender.host, message.dest.host)
        self.messages_sent += 1
        return pending

    def _make_wire(self, pending, first):
        """Build the wrapped transport message for one (re)transmission."""
        pending.attempts += 1
        pending.last_sent = self.sim.now
        if not first:
            self.retransmits += 1
        message = pending.message
        envelope = Envelope(
            pending.stream, pending.seq, message.dest.port,
            message.payload, pending.attempts,
        )
        delay = self.ack_timeout * (self.backoff ** (pending.attempts - 1))
        pending.timer = self.sim.schedule(delay, self._on_timeout, (pending,))
        return Message(
            sender=message.sender,
            dest=Address(message.dest.host, DATA_PORT),
            payload=envelope,
            size_units=message.size_units,
            protocol=message.protocol,
            label=message.label,
        )

    def _wire(self, pending, first):
        self.transport.post(self._make_wire(pending, first))

    def _on_timeout(self, pending):
        key = (pending.stream, pending.seq)
        if self._pending.get(key) is not pending:
            return  # acked in the meantime
        if pending.attempts >= self.max_attempts:
            del self._pending[key]
            reason = "no ack after %d attempts" % pending.attempts
            dead = self._dead_by_key.get(key)
            if dead is None:
                dead = DeadLetter(pending, self.sim.now, reason)
                self._dead_by_key[key] = dead
                self.dead_letters.append(dead)
            else:
                # Re-exhaustion after a redelivery round: refresh the
                # existing entry instead of double-counting the loss.
                dead.attempts += pending.attempts
                dead.dead_at = self.sim.now
                dead.reason = reason
                dead.status = "dead"
            self._maybe_park(dead)
            if self.on_dead_letter is not None:
                self.on_dead_letter(dead)
            return
        self._wire(pending, first=False)

    # -- redelivery --------------------------------------------------------

    def _maybe_park(self, dead):
        """Park a fresh dead letter for redelivery (when enabled).

        Runs *before* :attr:`on_dead_letter` fires so the hook observes
        the settled status: ``parked`` (a probe is armed), ``gave-up``
        (budget already spent) or ``dead`` (redelivery off).
        """
        if not self.redelivery:
            return
        budget = self.redelivery_give_up_after
        if budget is not None and self.sim.now - dead.first_sent >= budget:
            self._give_up(dead)
            return
        dead.status = "parked"
        dst = dead.stream[1]
        self._parked.setdefault(dst, []).append(dead)
        self._arm_probe(dst, self.redelivery_interval)

    def _arm_probe(self, dst, interval):
        if dst in self._probe_armed:
            return
        self._probe_armed.add(dst)
        self._probe_interval[dst] = interval
        self.sim.schedule(interval, self._probe, (dst,))

    def _probe(self, dst):
        """One heal probe: give up on stale entries, re-ship or back off.

        Liveness comes from the topology (``host.up``) -- the simulated
        stand-in for a piggybacked heartbeat -- so probes cost no network
        units; the re-shipped envelopes pay full transport charges.
        """
        self._probe_armed.discard(dst)
        queue = self._parked.get(dst)
        if not queue:
            self._parked.pop(dst, None)
            return
        self.heal_probes += 1
        budget = self.redelivery_give_up_after
        if budget is not None:
            keep = []
            for dead in queue:
                if self.sim.now - dead.first_sent >= budget:
                    self._give_up(dead)
                else:
                    keep.append(dead)
            queue[:] = keep
            if not queue:
                del self._parked[dst]
                return
        host = self.network.hosts.get(dst)
        if host is not None and host.up:
            # Site partitions are invisible to host liveness (the peer is
            # up, just unreachable), so the probe must also consult the
            # topology's partition state -- otherwise parked envelopes
            # toward a partitioned site would churn re-ship/re-exhaust
            # rounds against a severed link until their budget ran out.
            severed = self.network.severed_between
            ready = [dead for dead in queue
                     if not severed(dead.stream[0], dst)]
            if ready:
                still_cut = [dead for dead in queue if dead not in ready]
                if still_cut:
                    queue[:] = still_cut
                else:
                    del self._parked[dst]
                wires = [self._reopen(dead) for dead in ready]
                self.transport.post_batch(wires)
                if not still_cut:
                    return
        interval = min(
            self.redelivery_max_interval,
            self._probe_interval.get(dst, self.redelivery_interval)
            * self.redelivery_backoff,
        )
        self._arm_probe(dst, interval)

    def _reopen(self, dead):
        """Re-enroll a parked envelope under its *original* (stream, seq).

        Reusing the sequence number is what preserves exactly-once above
        dedup: if the dead-lettered envelope had actually been delivered
        (only its ACKs were lost), the receiver re-acks and drops the
        redelivered copy as a duplicate.
        """
        pending = _Pending(dead.stream, dead.seq, dead.message, self.sim.now)
        pending.first_sent = dead.first_sent
        self._pending[(dead.stream, dead.seq)] = pending
        dead.status = "redelivered"
        dead.redelivered_at = self.sim.now
        self.redelivered += 1
        if self.on_redelivered is not None:
            self.on_redelivered(dead)
        return self._make_wire(pending, first=True)

    def _give_up(self, dead):
        dead.status = "gave-up"
        self.redelivery_gave_up += 1
        if self.on_redelivery_gave_up is not None:
            self.on_redelivery_gave_up(dead)

    def _on_ack(self, wire):
        ack = wire.payload
        if not isinstance(ack, _Ack):
            return
        pending = self._pending.pop((ack.stream, ack.seq), None)
        if pending is None:
            return  # duplicate ACK for an already-settled message
        if pending.timer is not None:
            pending.timer.cancel()
        self.messages_acked += 1
        latency = self.sim.now - pending.first_sent
        self.latency_sum += latency
        if latency > self.latency_max:
            self.latency_max = latency

    # -- receiver side -----------------------------------------------------

    def _on_data(self, wire):
        envelope = wire.payload
        if not isinstance(envelope, Envelope):
            return
        stream, seq = envelope.stream, envelope.seq
        seen = self._seen.setdefault(stream, set())
        if seq in seen:
            # Duplicate: the payload was already handed up; the ACK must
            # have been lost, so re-ack without redelivering.
            self.dup_drops += 1
            self._send_ack(wire, stream, seq)
            return
        destination = self.network.hosts.get(wire.dest.host)
        handler = (destination.handler_for(envelope.port)
                   if destination is not None else None)
        if handler is None:
            # Arrived on a host that no longer serves the original port.
            # Ack anyway: retransmitting cannot help, and leaving the
            # sender to dead-letter it would misreport a *delivered* wire.
            self.undeliverable += 1
            seen.add(seq)
            self._send_ack(wire, stream, seq)
            return
        seen.add(seq)
        self.messages_delivered += 1
        # Restore the original addressing before the handoff so handlers
        # (e.g. AgentPlatform._on_network_message) see a plain delivery.
        wire.dest = Address(wire.dest.host, envelope.port)
        wire.payload = envelope.payload
        self._send_ack(wire, stream, seq)
        handler(wire)

    def _send_ack(self, wire, stream, seq):
        self.acks_sent += 1
        self.transport.post(Message(
            sender=Address(wire.dest.host, DATA_PORT),
            dest=Address(stream[0], ACK_PORT),
            payload=_Ack(stream, seq),
            size_units=self.ack_size_units,
            protocol="rel-ack",
        ))

    # -- wiring ------------------------------------------------------------

    def _bind_endpoints(self, sender_host_name, dest_host_name):
        if sender_host_name not in self._ack_hosts:
            host = self.network.hosts.get(sender_host_name)
            if host is not None:
                host.bind(ACK_PORT, self._on_ack)
            self._ack_hosts.add(sender_host_name)
        if dest_host_name not in self._data_hosts:
            host = self.network.hosts.get(dest_host_name)
            if host is not None:
                host.bind(DATA_PORT, self._on_data)
            self._data_hosts.add(dest_host_name)

    # -- reporting ---------------------------------------------------------

    def mean_latency(self):
        if not self.messages_acked:
            return 0.0
        return self.latency_sum / self.messages_acked

    def stats(self):
        return {
            "sent": self.messages_sent,
            "delivered": self.messages_delivered,
            "acked": self.messages_acked,
            "retransmits": self.retransmits,
            "dup_drops": self.dup_drops,
            "acks_sent": self.acks_sent,
            "dead_letters": len(self.dead_letters),
            "undeliverable": self.undeliverable,
            "pending": len(self._pending),
            "parked": self.parked_count(),
            "redelivered": self.redelivered,
            "redelivery_gave_up": self.redelivery_gave_up,
            "permanently_dead": len(self.permanently_dead()),
            "heal_probes": self.heal_probes,
            "mean_latency": self.mean_latency(),
            "max_latency": self.latency_max,
        }

    def __repr__(self):
        return ("ReliableChannel(sent=%d, acked=%d, retransmits=%d, "
                "dead=%d)") % (self.messages_sent, self.messages_acked,
                               self.retransmits, len(self.dead_letters))
