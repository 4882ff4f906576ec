"""The paper's contribution: the agent-grid management architecture.

Subpackage layout (one module per architectural element of Figure 2):

* :mod:`records <repro.core.records>` -- the common data representation
  collected data is normalized into;
* :mod:`costs <repro.core.costs>` -- the Table 1 cost model driving all
  resource charging;
* :mod:`storage <repro.core.storage>` -- the indexed management-data store;
* :mod:`collector <repro.core.collector>` -- the Collector Grid (CG);
* :mod:`classifier <repro.core.classifier>` -- the Classifier Grid (CLG);
* :mod:`processor <repro.core.processor>` -- the Processor Grid (PG): root
  broker, analyzer containers, multi-level analysis;
* :mod:`loadbalance <repro.core.loadbalance>` -- job-placement policies;
* :mod:`negotiation <repro.core.negotiation>` -- FIPA contract-net;
* :mod:`interface <repro.core.interface>` -- the Interface Grid (IG);
* :mod:`reports <repro.core.reports>` -- management reports and alerts;
* :mod:`system <repro.core.system>` -- :class:`GridManagementSystem`, the
  facade that deploys a full grid from a topology spec.
"""

from repro.core.records import CollectionGoal, ManagementRecord, Sample
from repro.core.costs import CostModel, TaskKind, REQUEST_TYPE_GROUPS
from repro.core.storage import ManagementDataStore, StorageAgent
from repro.core.reports import Alert, Finding, ManagementReport
from repro.core.loadbalance import (
    CapacityWeightedPolicy,
    IdleFirstPolicy,
    KnowledgeFirstPolicy,
    NegotiatedPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.core.collector import CollectorAgent
from repro.core.classifier import ClassifierAgent
from repro.core.processor import AnalyzerAgent, ProcessorRootAgent
from repro.core.interface import InterfaceAgent
from repro.core.system import GridManagementSystem, GridTopologySpec
from repro.core.federation import (
    FederatedManagementSystem,
    FederatedTopologySpec,
    SiteSpec,
)
from repro.core.reactive import ReactiveCollectionService
from repro.core.replication import ReplicationService

__all__ = [
    "Alert",
    "AnalyzerAgent",
    "CapacityWeightedPolicy",
    "ClassifierAgent",
    "CollectionGoal",
    "CollectorAgent",
    "FederatedManagementSystem",
    "FederatedTopologySpec",
    "ReactiveCollectionService",
    "ReplicationService",
    "SiteSpec",
    "CostModel",
    "Finding",
    "GridManagementSystem",
    "GridTopologySpec",
    "IdleFirstPolicy",
    "InterfaceAgent",
    "KnowledgeFirstPolicy",
    "ManagementDataStore",
    "ManagementRecord",
    "ManagementReport",
    "NegotiatedPolicy",
    "ProcessorRootAgent",
    "REQUEST_TYPE_GROUPS",
    "RoundRobinPolicy",
    "Sample",
    "StorageAgent",
    "TaskKind",
    "make_policy",
]
