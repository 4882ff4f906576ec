"""Deterministic discrete-event simulation kernel.

The kernel is the spine of the reproduction: every other subsystem (the
simulated network, the SNMP devices, the agent platform and the management
grids) runs as processes on a single :class:`~repro.simkernel.simulator.Simulator`
instance.  Resources (CPU, disk, NIC) account busy time, which is what the
paper's Figure 6 reports.

Public surface:

* :class:`Simulator` -- event queue, clock, process scheduler.
* :class:`Process` -- a running simulation process (wraps a generator).
* :class:`SimEvent` -- one-shot triggerable event processes can wait on.
* :class:`Resource` / :class:`ResourceKind` -- capacity-limited server with a
  busy-time ledger.
* :class:`RngStream` -- named, seed-derived random streams for determinism.
* :mod:`metrics <repro.simkernel.metrics>` -- time series / counters.
* :mod:`telemetry <repro.simkernel.telemetry>` -- causal spans and the
  session :class:`Telemetry` flight recorder.
"""

from repro.simkernel.events import EventQueue, ScheduledEvent, SimEvent
from repro.simkernel.simulator import (
    Interrupted,
    Process,
    ProcessKilled,
    SimulationError,
    Simulator,
)
from repro.simkernel.resources import Resource, ResourceKind, Use
from repro.simkernel.rng import RngStream, derive_seed
from repro.simkernel.metrics import Counter, Gauge, MetricRegistry, TimeSeries
from repro.simkernel.telemetry import Span, SpanRecorder, Telemetry

__all__ = [
    "Counter",
    "EventQueue",
    "Gauge",
    "Interrupted",
    "MetricRegistry",
    "Process",
    "ProcessKilled",
    "Resource",
    "ResourceKind",
    "RngStream",
    "ScheduledEvent",
    "SimEvent",
    "SimulationError",
    "Simulator",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "TimeSeries",
    "Use",
    "derive_seed",
]
