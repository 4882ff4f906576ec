"""The agent platform: AMS registry + message transport service.

The platform spans every container in the deployment (FIPA's AMS/MTS roles
collapsed into one object).  Message routing:

* **intra-host** delivery is direct (no network cost) -- agents sharing a
  host talk through memory, as on a real agent platform;
* **inter-host** delivery wraps the ACL message in a network
  :class:`~repro.network.transport.Message` sized by the ACL size model and
  sends it through the simulated transport, charging both NICs.

Undeliverable messages (unknown agent, dead container) are returned to the
sender as FAILURE messages from the platform, per FIPA AMS semantics.
"""

from repro.agents.acl import ACLMessage, AgentId, Performative
from repro.network.transport import Message


class PlatformError(RuntimeError):
    """Platform-level misuse (duplicate names, unknown containers...)."""


#: Pseudo-agent name used as sender of platform failure notifications.
AMS_NAME = "ams"


class AgentPlatform:
    """AMS + MTS over a simulated network.

    Args:
        sim: the simulator.
        network: the topology.
        transport: shared :class:`~repro.network.transport.Transport`.
        name: platform name (cosmetic).
    """

    ACL_PORT = "acl"

    def __init__(self, sim, network, transport, name="repro-platform",
                 reliable_channel=None, telemetry=None):
        self.sim = sim
        self.network = network
        self.transport = transport
        self.name = name
        #: Optional :class:`~repro.network.reliable.ReliableChannel`; when
        #: set, :meth:`send_reliable` / :meth:`send_batch_reliable` route
        #: wire messages through it (acks + retransmission + dead-letter
        #: accounting) instead of fire-and-forget posting.
        self.reliable_channel = reliable_channel
        #: Optional :class:`~repro.simkernel.telemetry.Telemetry` flight
        #: recorder shared by every agent on the platform.  ``None`` (the
        #: default) keeps the hot paths span-free.
        self.telemetry = telemetry
        self.containers = {}
        self._agents = {}  # name -> agent
        self._bound_hosts = set()
        self.messages_routed = 0
        self.messages_failed = 0

    # -- registration (called by AgentContainer) -------------------------

    def _register_container(self, container):
        if container.name in self.containers:
            raise PlatformError("container %r already registered" % container.name)
        self.containers[container.name] = container
        if container.host.name not in self._bound_hosts:
            container.host.bind(self.ACL_PORT, self._on_network_message)
            self._bound_hosts.add(container.host.name)

    def _deregister_container(self, container):
        self.containers.pop(container.name, None)

    def _register_agent(self, agent):
        existing = self._agents.get(agent.name)
        if existing is not None and existing is not agent:
            raise PlatformError("agent name %r already registered" % agent.name)
        self._agents[agent.name] = agent

    def _deregister_agent(self, agent):
        if self._agents.get(agent.name) is agent:
            del self._agents[agent.name]

    # -- convenience constructors -----------------------------------------

    def create_container(self, name, host, services=(), knowledge=()):
        from repro.agents.container import AgentContainer

        return AgentContainer(name, host, self, services, knowledge)

    # -- lookup ------------------------------------------------------------

    def agent(self, name):
        if isinstance(name, AgentId):
            name = name.name
        return self._agents.get(name)

    def container_of(self, agent_name):
        agent = self.agent(agent_name)
        if agent is None:
            return None
        return agent.container

    def agent_names(self):
        return sorted(self._agents)

    # -- message transport ----------------------------------------------------

    def send(self, acl_message):
        """Route an ACL message to its receiver (fire-and-forget)."""
        wire = self._route(acl_message)
        if wire is not None:
            self.transport.post(wire)

    def send_batch(self, acl_messages):
        """Route several ACL messages at once.

        Local deliveries still happen one-by-one (memory handoff is already
        free), but wire-bound messages to the same destination host travel
        as one aggregate transfer via :meth:`Transport.post_batch` -- the
        paper's batch shipping made real at the MTS layer.
        """
        wires = [wire for wire in map(self._route, acl_messages)
                 if wire is not None]
        if wires:
            self.transport.post_batch(wires)

    def send_reliable(self, acl_message):
        """Route one ACL message over the reliable channel when installed.

        Without a channel this is exactly :meth:`send` -- loss-free runs
        stay byte-identical -- so senders that need delivery guarantees
        (collector shipping, data-ready notifies, replication, alerts) can
        call this unconditionally.
        """
        wire = self._route(acl_message)
        if wire is None:
            return
        if self.reliable_channel is None:
            self.transport.post(wire)
        else:
            self.reliable_channel.post(wire)

    def send_batch_reliable(self, acl_messages):
        """Batch variant of :meth:`send_reliable` (one aggregate transfer
        per destination flow for the first transmissions)."""
        wires = [wire for wire in map(self._route, acl_messages)
                 if wire is not None]
        if not wires:
            return
        if self.reliable_channel is None:
            self.transport.post_batch(wires)
        else:
            self.reliable_channel.post_batch(wires)

    def _route(self, acl_message):
        """Shared routing: deliver locally or return the wire message."""
        acl_message.sent_at = self.sim.now
        receiver = self.agent(acl_message.receiver)
        if receiver is None or receiver.container is None:
            self._bounce(acl_message, "unknown or undeployed agent %s"
                         % acl_message.receiver)
            return None
        sender = self.agent(acl_message.sender)
        if sender is None or sender.container is None:
            # A removed agent has no host to charge the send to; routing
            # it for free would hide its traffic from every NIC.
            self._bounce(acl_message, "unknown or undeployed sender %s"
                         % acl_message.sender)
            return None
        sender_host = sender.container.host
        dest_host = receiver.container.host
        self.messages_routed += 1
        if sender_host is dest_host:
            # Intra-host: direct delivery, no NIC cost.
            self.sim.schedule(0.0, self._deliver_local, (acl_message,))
            return None
        return Message(
            sender=self.transport.address(sender_host.name, self.ACL_PORT),
            dest=self.transport.address(dest_host.name, self.ACL_PORT),
            payload=acl_message,
            size_units=acl_message.size_units,
            protocol="acl",
        )

    def _deliver_local(self, acl_message):
        receiver = self.agent(acl_message.receiver)
        if receiver is None or receiver.container is None:
            self._bounce(acl_message, "agent vanished before delivery")
            return
        receiver.deliver(acl_message)

    def _on_network_message(self, message):
        acl_message = message.payload
        if not isinstance(acl_message, ACLMessage):
            return
        receiver = self.agent(acl_message.receiver)
        if receiver is None or receiver.container is None:
            self._bounce(acl_message, "receiver gone at destination host")
            return
        receiver.deliver(acl_message)

    def _bounce(self, original, reason):
        """Return a FAILURE notification to the sender (if reachable)."""
        self.messages_failed += 1
        sender = self.agent(original.sender)
        if sender is None or sender.container is None:
            return  # nowhere to report
        if original.sender == AMS_NAME:
            return  # never bounce a bounce
        failure = ACLMessage(
            Performative.FAILURE,
            sender=AMS_NAME,
            receiver=original.sender,
            content={"reason": reason, "original": original},
            ontology="ams-failure",
            conversation_id=original.conversation_id,
            in_reply_to=original.reply_with,
        )
        self.sim.schedule(0.0, self._deliver_local, (failure,))

    def stats(self):
        return {
            "containers": len(self.containers),
            "agents": len(self._agents),
            "routed": self.messages_routed,
            "failed": self.messages_failed,
        }

    def __repr__(self):
        return "AgentPlatform(%r, agents=%d, containers=%d)" % (
            self.name, len(self._agents), len(self.containers),
        )
