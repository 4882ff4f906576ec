"""repro: Grids of Agents for Computer and Telecommunication Network Management.

A full reproduction of Assunção, Westphall & Koch (MIDDLEWARE 2003): an
agent-grid architecture for network management, built on a deterministic
discrete-event simulator with a FIPA-flavoured agent platform, an SNMP-like
device substrate and a production-rule analysis engine.

Quickstart::

    from repro import GridTopologySpec, GridManagementSystem

    spec = GridTopologySpec.paper_figure6c(seed=1)
    system = GridManagementSystem(spec)
    system.assign_goals(system.make_paper_goals(polls_per_type=10))
    system.run_until_reports(count=1, timeout=600)
    print(system.utilization_report().render())

See DESIGN.md for the architecture inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.core.costs import CostModel, TaskKind
from repro.core.records import CollectionGoal, ManagementRecord
from repro.core.system import (
    DeviceSpec,
    GridManagementSystem,
    GridTopologySpec,
    HostSpec,
)
from repro.baselines.centralized import centralized_spec
from repro.baselines.multiagent import multiagent_spec
from repro.baselines.driver import run_architecture, run_figure6
from repro.evaluation.accounting import UtilizationReport, compare_reports
from repro.simkernel.simulator import Simulator

__version__ = "1.0.0"

__all__ = [
    "CollectionGoal",
    "CostModel",
    "DeviceSpec",
    "GridManagementSystem",
    "GridTopologySpec",
    "HostSpec",
    "ManagementRecord",
    "Simulator",
    "TaskKind",
    "UtilizationReport",
    "centralized_spec",
    "compare_reports",
    "multiagent_spec",
    "run_architecture",
    "run_figure6",
    "__version__",
]
