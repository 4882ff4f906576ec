"""Outside-in per-layer self-time ledger for one traced round.

Spans are timed from the benchmark's side of each layer boundary; nothing
under ``src/`` is edited.  :func:`install` wraps, in the worker process
that runs the traced round:

* ``Simulator.run`` -- the root span; only time inside it is counted;
* every dispatched event, through the public ``Simulator.add_trace_hook``
  (see :meth:`Ledger.attach`).  An event is charged to the module that
  owns its callback; for a process step (``Simulator._step``,
  ``_Resumer``, ``Resource._complete``) that is the module of the
  innermost generator being resumed;
* the public entry points listed in :data:`ENTRY_POINTS`;
* the code each behaviour runs per activation (``step`` / ``action`` /
  ``on_tick``), so domain code reached through a generic behaviour loop
  is charged to the module that defines it, not to ``agents``;
* port handlers the transport hands a message to (``Host.handler_for``)
  and span-close hooks, so delivery into a layer is charged to it.

A span's self time is its duration minus that of its child spans.  Spans
fold into per-layer totals as they close instead of being stored, which
keeps memory flat at the ~10^6 spans of a round.  The wrappers' own cost
lands in the self time of the span that encloses them; the benchmark
reports it as ``bench.trace_overhead``.
"""

import functools
import inspect
import os
from time import perf_counter

import repro
from repro.agents.agent import Agent
from repro.agents.platform import AgentPlatform
from repro.core.storage import ManagementDataStore
from repro.network.reliable import ReliableChannel
from repro.network.topology import Host
from repro.network.transport import Transport
from repro.rules.engine import InferenceEngine
from repro.simkernel.events import EventQueue
from repro.simkernel.histogram import LatencyHistogram
from repro.simkernel.resources import Resource
from repro.simkernel.simulator import Simulator, _Resumer
from repro.simkernel.telemetry import SpanRecorder
from repro.snmp.device import ManagedDevice
from repro.snmp.manager import SnmpClient
from repro.snmp.mib import MibTree

LAYERS = (
    "simkernel", "simkernel.telemetry", "network.transport",
    "network.reliable", "agents", "snmp", "rules", "core.collector",
    "core.classifier", "core.storage", "core.processor", "core.interface",
    "core.health",
)
#: Code outside every named layer (e.g. fault-injection callbacks).
OTHER = "other"

#: Module prefix -> layer; the first matching prefix wins.
MODULE_LAYERS = (
    ("repro.simkernel.telemetry", "simkernel.telemetry"),
    ("repro.simkernel.histogram", "simkernel.telemetry"),
    ("repro.simkernel", "simkernel"),
    ("repro.network.reliable", "network.reliable"),
    ("repro.network", "network.transport"),
    ("repro.agents", "agents"),
    ("repro.snmp", "snmp"),
    ("repro.rules", "rules"),
    ("repro.core.collector", "core.collector"),
    ("repro.core.classifier", "core.classifier"),
    ("repro.core.sharding", "core.classifier"),
    ("repro.core.storage", "core.storage"),
    ("repro.core.processor", "core.processor"),
    ("repro.core.loadbalance", "core.processor"),
    ("repro.core.gossip", "core.processor"),
    ("repro.core.negotiation", "core.processor"),
    ("repro.core.interface", "core.interface"),
    ("repro.core.health", "core.health"),
)

#: The public entry points timed as spans of the layer of their module.
ENTRY_POINTS = (
    (EventQueue, ("push", "push_fifo", "pop")),
    (Transport, ("send", "post", "send_batch", "post_batch",
                 "send_and_wait")),
    (ReliableChannel, ("post", "post_batch")),
    (AgentPlatform, ("send", "send_batch", "send_reliable",
                     "send_batch_reliable")),
    (ManagedDevice, ("catch_up",)),
    (MibTree, ("get", "get_next", "walk")),
    (SnmpClient, ("request",)),
    (ManagementDataStore, ("fetch_cluster", "baselines_for_records",
                           "summary")),
    (SpanRecorder, ("start", "end")),
    (LatencyHistogram, ("record",)),
)

#: Behaviour methods whose generator is the per-activation domain code.
BEHAVIOUR_HOOKS = ("step", "action", "on_tick")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
_STEP = Simulator._step
_COMPLETE = Resource._complete


def module_layer(module):
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


class Ledger:
    """Per-layer self time and span counts for one traced round."""

    def __init__(self):
        names = LAYERS + (OTHER,)
        self._index = {name: index for index, name in enumerate(names)}
        self._names = names
        self.self_s = [0.0] * len(names)
        self.calls = [0] * len(names)
        self.root_wall = 0.0
        self.events = 0
        self.entry_calls = {}
        self.rules = {"runs": 0, "facts": 0, "cycles": 0}
        self._stack = []  # open spans: [layer index, start, child time]
        self._file_layers = {}
        self._proxy_code = None
        self._undo = []

    # -- spans ----------------------------------------------------------

    def _close(self):
        now = perf_counter()
        layer, start, child = self._stack.pop()
        duration = now - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def _span(self, function, layer, counter=None):
        """``function`` wrapped in a span of ``layer`` (inside the root)."""
        stack = self._stack
        close = self._close

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not stack:
                return function(*args, **kwargs)
            if counter is not None:
                counter[0] += 1
            stack.append([layer, perf_counter(), 0.0])
            try:
                return function(*args, **kwargs)
            finally:
                close()

        return wrapper

    def _generator_span(self, function, layer, counter=None):
        """Wrap a generator function: each resumption is one span."""
        timed = self._timed

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if counter is not None and self._stack:
                counter[0] += 1
            return timed(function(*args, **kwargs), layer)

        return wrapper

    def _timed(self, generator, layer):
        stack = self._stack
        value = None
        error = None
        while True:
            traced = bool(stack)
            if traced:
                stack.append([layer, perf_counter(), 0.0])
            try:
                if error is None:
                    item = generator.send(value)
                else:
                    item, error = generator.throw(error), None
            except StopIteration as stop:
                return stop.value
            finally:
                if traced:
                    self._close()
            try:
                value = yield item
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # thrown in by the kernel
                error, value = exc, None

    # -- attribution ----------------------------------------------------

    def _callable_layer(self, callback):
        function = getattr(callback, "__func__", callback)
        module = getattr(function, "__module__", None) \
            or type(callback).__module__
        return self._index[module_layer(module)]

    def _file_layer(self, filename):
        layer = self._file_layers.get(filename)
        if layer is None:
            path = os.path.abspath(filename)
            if path.startswith(_REPRO_DIR + os.sep):
                relative = os.path.relpath(path, os.path.dirname(_REPRO_DIR))
                module = os.path.splitext(relative)[0].replace(os.sep, ".")
            else:
                module = ""
            layer = self._index[module_layer(module)]
            self._file_layers[filename] = layer
        return layer

    def _generator_layer(self, generator):
        """Layer of the innermost generator in a ``yield from`` chain."""
        layer = self._index["simkernel"]
        while generator is not None:
            code = getattr(generator, "gi_code", None)
            if code is None:
                break
            if code is not self._proxy_code:
                layer = self._file_layer(code.co_filename)
            generator = generator.gi_yieldfrom
        return layer

    def _event_layer(self, callback, args):
        function = getattr(callback, "__func__", None)
        if function is _STEP:
            return self._generator_layer(args[0].generator)
        if type(callback) is _Resumer:
            return self._generator_layer(callback.process.generator)
        if function is _COMPLETE:
            request = args[0]
            if request.process is not None:
                return self._generator_layer(request.process.generator)
            if request.on_complete is not None:
                return self._callable_layer(request.on_complete)
        return self._callable_layer(callback)

    def _trace_hook(self, now, event):
        callback = event.callback
        layer = self._event_layer(callback, event.args)
        self.events += 1
        stack = self._stack
        close = self._close

        def timed(*args):
            stack.append([layer, perf_counter(), 0.0])
            try:
                callback(*args)
            finally:
                close()

        event.callback = timed

    # -- installation ---------------------------------------------------

    def _patch(self, owner, name, replacement):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self):
        """Wrap every boundary on its class; :meth:`uninstall` reverts."""
        self._proxy_code = self._timed.__code__
        simkernel = self._index["simkernel"]
        for owner, names in ENTRY_POINTS:
            for name in names:
                function = owner.__dict__[name]
                layer = self._index[module_layer(function.__module__)]
                counter = self.entry_calls.setdefault(
                    "%s.%s" % (owner.__name__, name), [0])
                wrap = (self._generator_span
                        if inspect.isgeneratorfunction(function)
                        else self._span)
                self._patch(owner, name, wrap(function, layer, counter))
        self._patch(Simulator, "run", self._root(Simulator.run, simkernel))
        self._patch(InferenceEngine, "run", self._rules_run(
            InferenceEngine.run, self._index["rules"]))
        self._patch(Host, "handler_for", self._handler_for(Host.handler_for))
        self._patch(Agent, "add_behaviour",
                    self._add_behaviour(Agent.add_behaviour))
        return self

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def attach(self, system):
        """Hook one built deployment: event spans and span-close hooks."""
        system.sim.add_trace_hook(self._trace_hook)
        if system.telemetry is not None:
            hooks = system.telemetry.recorder.close_hooks
            hooks[:] = [self._span(hook, self._callable_layer(hook))
                        for hook in hooks]

    def _root(self, function, layer):
        stack = self._stack
        close = self._close

        @functools.wraps(function)
        def run(*args, **kwargs):
            if stack:
                return function(*args, **kwargs)
            stack.append([layer, perf_counter(), 0.0])
            try:
                return function(*args, **kwargs)
            finally:
                self.root_wall += close()

        return run

    def _rules_run(self, function, layer):
        spanned = self._span(function, layer)
        rules = self.rules

        @functools.wraps(function)
        def run(engine):
            if not self._stack:
                return function(engine)
            cycles = engine.cycles_run
            rules["runs"] += 1
            rules["facts"] += len(engine.memory)
            try:
                return spanned(engine)
            finally:
                rules["cycles"] += engine.cycles_run - cycles

        return run

    def _handler_for(self, function):
        wrapped = {}  # handler -> its span wrapper

        @functools.wraps(function)
        def handler_for(host, port):
            handler = function(host, port)
            if handler is None or not self._stack:
                return handler
            spanned = wrapped.get(handler)
            if spanned is None:
                spanned = wrapped[handler] = self._span(
                    handler, self._callable_layer(handler))
            return spanned

        return handler_for

    def _add_behaviour(self, function):
        @functools.wraps(function)
        def add_behaviour(agent, behaviour):
            for name in BEHAVIOUR_HOOKS:
                bound = getattr(behaviour, name, None)
                module = getattr(bound, "__module__", "")
                if bound is None or module == "repro.agents.behaviours":
                    continue  # the generic loops themselves stay in agents
                setattr(behaviour, name, self._generator_span(
                    bound, self._callable_layer(bound)))
            return function(agent, behaviour)

        return add_behaviour

    # -- results --------------------------------------------------------

    def report(self):
        """The ledger as a flat ``metric name -> value`` dict."""
        wall = self.root_wall
        metrics = {}
        for index, name in enumerate(self._names):
            metrics[name + ".self_s"] = self.self_s[index]
            metrics[name + ".share"] = self.self_s[index] / wall if wall else 0.0
            metrics[name + ".calls"] = self.calls[index]
        other = self.self_s[self._index[OTHER]]
        metrics["bench.attributed_share"] = 1.0 - other / wall if wall else 0.0
        metrics["simkernel.events"] = self.events
        metrics["snmp.catch_ups"] = self.entry_calls[
            "ManagedDevice.catch_up"][0]
        runs = self.rules["runs"]
        metrics["rules.runs"] = runs
        metrics["rules.facts_per_run"] = self.rules["facts"] / runs if runs \
            else 0.0
        metrics["rules.cycles"] = self.rules["cycles"]
        return metrics

    def entry_point_calls(self):
        return {name: cell[0] for name, cell in sorted(self.entry_calls.items())}
