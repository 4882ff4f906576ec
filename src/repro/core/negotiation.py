"""FIPA contract-net negotiation between the grid root and containers.

Section 3.5: the root "could [...] negotiate with containers concerning
the possibility of sending information to be processed by them.  In this
way it can use negotiation protocols established by FIPA."

Protocol (fipa-contract-net):

1. root sends **CFP** with the job outline to every candidate analyzer;
2. each analyzer replies **PROPOSE** (bid: estimated completion time from
   its live host state) or **REFUSE**;
3. root picks the lowest bid, sends **ACCEPT-PROPOSAL** to the winner and
   **REJECT-PROPOSAL** to the rest;
4. the winner performs the job (normal job flow takes over).

The initiator runs inside the root's own process via ``yield from``.
"""

from repro.agents.acl import ACLMessage, MessageTemplate, Performative
from repro.agents.ontology import JOB_CFP, JOB_PROPOSAL

#: Protocol tag carried by every negotiation message.
CONTRACT_NET = "fipa-contract-net"


class NegotiationOutcome:
    """Result of one contract-net round."""

    def __init__(self, job_id, winner, bids, refusals):
        self.job_id = job_id
        self.winner = winner            # winning container name, or None
        self.bids = bids                # {container_name: estimated_completion}
        self.refusals = refusals        # [container_name]

    @property
    def succeeded(self):
        return self.winner is not None

    def __repr__(self):
        return "NegotiationOutcome(%s -> %s, bids=%d)" % (
            self.job_id, self.winner, len(self.bids),
        )


class ContractNetInitiator:
    """Runs contract-net rounds from an initiating agent (the grid root).

    Args:
        agent: the initiating agent.
        deadline: seconds to wait for proposals after sending CFPs.
    """

    def __init__(self, agent, deadline=2.0):
        self.agent = agent
        self.deadline = deadline
        self.rounds = 0

    def negotiate(self, job, candidate_agent_names):
        """One round (process generator).  Returns a NegotiationOutcome.

        ``job`` is a :class:`~repro.core.loadbalance.PlacementJob`.
        """
        self.rounds += 1
        conversation = "cnet-%s-%d" % (job.job_id, self.rounds)
        cfp_content = JOB_CFP.make(
            job_id=job.job_id,
            cluster=job.cluster,
            record_count=job.record_count,
            required_service=job.required_service,
        )
        for name in candidate_agent_names:
            self.agent.send(ACLMessage(
                Performative.CFP,
                sender=self.agent.name,
                receiver=name,
                content=dict(cfp_content),
                ontology=JOB_CFP.name,
                protocol=CONTRACT_NET,
                conversation_id=conversation,
            ))
        bids = {}
        proposers = {}
        refusals = []
        deadline_at = self.agent.sim.now + self.deadline
        pending = set(candidate_agent_names)
        while pending and self.agent.sim.now < deadline_at:
            remaining = deadline_at - self.agent.sim.now
            message = yield from self.agent.receive(
                MessageTemplate(protocol=CONTRACT_NET,
                                conversation_id=conversation),
                timeout=remaining,
            )
            if message is None:
                break
            sender = str(message.sender)
            pending.discard(sender)
            if message.performative == Performative.PROPOSE:
                content = JOB_PROPOSAL.validate(message.content)
                bids[content["container"]] = content["estimated_completion"]
                proposers[content["container"]] = sender
            elif message.performative == Performative.REFUSE:
                refusals.append(sender)
        winner = None
        if bids:
            winner = min(bids, key=lambda container: (bids[container], container))
        for container, proposer in proposers.items():
            performative = (
                Performative.ACCEPT_PROPOSAL if container == winner
                else Performative.REJECT_PROPOSAL
            )
            self.agent.send(ACLMessage(
                performative,
                sender=self.agent.name,
                receiver=proposer,
                content={"job_id": job.job_id, "container": container},
                protocol=CONTRACT_NET,
                conversation_id=conversation,
            ))
        return NegotiationOutcome(job.job_id, winner, bids, refusals)


class ContractNetResponder:
    """The analyzer-side half: bid on CFPs using live host state.

    Installed by analyzer agents as part of their message loop; given a
    CFP message, :meth:`bid` sends PROPOSE (or REFUSE when the job's
    cluster is outside the container's knowledge).
    """

    def __init__(self, agent, busy_penalty=1.0):
        self.agent = agent
        self.busy_penalty = busy_penalty
        self.proposals_sent = 0
        self.refusals_sent = 0

    def bid(self, cfp_message, job_cpu_units_estimate=None):
        """Answer one CFP (plain call; sending is fire-and-forget)."""
        content = JOB_CFP.validate(cfp_message.content)
        container = self.agent.container
        if container.knowledge and content["cluster"] not in container.knowledge:
            self.refusals_sent += 1
            self.agent.reply_to(
                cfp_message, Performative.REFUSE,
                content={"job_id": content["job_id"],
                         "reason": "no knowledge of %s" % content["cluster"]},
            )
            return None
        host = container.host
        if job_cpu_units_estimate is None:
            job_cpu_units_estimate = 20.0 * content["record_count"]
        backlog_units = host.cpu.queue_length * 20.0
        estimate = (
            (backlog_units + job_cpu_units_estimate) / host.cpu_capacity
            + self.busy_penalty * container.busy_agents
        )
        proposal = JOB_PROPOSAL.make(
            job_id=content["job_id"],
            container=container.name,
            estimated_completion=estimate,
            queue_length=host.cpu.queue_length,
        )
        self.proposals_sent += 1
        self.agent.reply_to(
            cfp_message, Performative.PROPOSE, content=dict(proposal),
        )
        return proposal
