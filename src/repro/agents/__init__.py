"""AgentLight/FIPA-flavoured multi-agent platform on the simulated network.

The paper builds its grids from small FIPA-compliant agents (AgentLight).
This package provides the equivalent substrate:

* :mod:`acl <repro.agents.acl>` -- ACL messages, performatives, templates;
* :mod:`agent <repro.agents.agent>` -- the agent base class with a mailbox
  and behaviour scheduling;
* :mod:`behaviours <repro.agents.behaviours>` -- one-shot / cyclic / ticker
  behaviours;
* :mod:`container <repro.agents.container>` -- agent containers bound to
  hosts, with the resource profiles of Figure 4;
* :mod:`platform <repro.agents.platform>` -- AMS (agent registry) and MTS
  (message transport over the simulated network).

The paper's directory "D1" is the processor root's registration map
(:class:`~repro.core.processor.ProcessorRootAgent`): containers register
their profiles there, and placement reads their live load from them.

Agents stay where they are deployed: the grids move work to agents (job
placement), never agents between containers.
"""

from repro.agents.acl import ACLMessage, AgentId, MessageTemplate, Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import (
    Behaviour,
    CyclicBehaviour,
    OneShotBehaviour,
    TickerBehaviour,
)
from repro.agents.container import AgentContainer, ResourceProfile
from repro.agents.platform import AgentPlatform, PlatformError

__all__ = [
    "ACLMessage",
    "Agent",
    "AgentContainer",
    "AgentId",
    "AgentPlatform",
    "Behaviour",
    "CyclicBehaviour",
    "MessageTemplate",
    "OneShotBehaviour",
    "Performative",
    "PlatformError",
    "ResourceProfile",
    "TickerBehaviour",
]
