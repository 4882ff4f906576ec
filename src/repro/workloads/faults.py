"""Fault-injection plans and the chaos harness.

Faults injected in experiments fall into three families:

* **device faults** -- a managed device's metrics enter a degraded regime
  (CPU runaway, memory leak, disk filling, interface down); the analysis
  rules are expected to *detect* these.
* **infrastructure faults** -- a management container or host is killed
  mid-run (``container_down`` / ``agent_down`` / ``host_down``); the
  processor-grid root is expected to *tolerate* these by re-dispatching
  jobs (bench X4) or -- with heartbeats enabled -- evicting the dead
  container within the heartbeat timeout.  ``host_down`` may carry
  ``clear_after`` to model a reboot (:meth:`Host.recover`).
* **network faults** -- ``link_loss_burst`` spikes a LAN/WAN loss rate for
  a while; the reliable channel is expected to retransmit through it.
  ``site_partition`` severs every inter-site link touching one site (its
  hosts stay up and keep talking over the LAN); ``site_partition_heal``
  restores it.  The federation mesh is expected to *detect* the partition
  within its heartbeat timeout, degrade the peer's devices to offline,
  and converge back after the heal.  ``host_partition`` cuts a split-brain
  *island*: the listed hosts keep talking to each other, everyone else
  keeps talking to each other, and only cross-boundary traffic drops
  (``host_partition_heal`` dissolves it).  The analyzer gossip mesh is
  expected to converge on a suspicion view inside each half and reconcile
  on heal (see :mod:`repro.core.gossip`).

``container_down`` kills exactly one container (its agents stop; the host
and its other containers stay up).  Killing the whole machine is
``host_down``.
"""


class FaultEvent:
    """One scheduled fault.

    Args:
        at: simulated time to fire.
        kind: device fault kind ("cpu_runaway", "memory_leak",
            "disk_filling", "interface_down"), "container_down",
            "agent_down", "host_down" or "link_loss_burst".
        target: device / container / agent / host name, a site name for
            "site_partition"/"site_partition_heal", a list/tuple of host
            names (the island) for "host_partition", or -- for
            "link_loss_burst" -- "wan" or a site name.
        interface: 0-based interface index; required by "interface_down"
            and rejected by every other kind.
        clear_after: optional duration after which the fault self-clears
            (device faults, "host_down" recovery, burst end, partition
            auto-heal).  Rejected for "container_down"/"agent_down":
            killed containers and agents do not resurrect; deploy a new
            one instead.  Rejected for "site_partition_heal"/
            "host_partition_heal": a heal is instantaneous.
        loss_rate: the burst loss probability ("link_loss_burst" only).
    """

    DEVICE_KINDS = ("cpu_runaway", "memory_leak", "disk_filling",
                    "interface_down")
    CONTAINER_DOWN = "container_down"
    AGENT_DOWN = "agent_down"
    HOST_DOWN = "host_down"
    LINK_LOSS_BURST = "link_loss_burst"
    SITE_PARTITION = "site_partition"
    SITE_PARTITION_HEAL = "site_partition_heal"
    HOST_PARTITION = "host_partition"
    HOST_PARTITION_HEAL = "host_partition_heal"
    INFRA_KINDS = (CONTAINER_DOWN, AGENT_DOWN, HOST_DOWN)
    NETWORK_KINDS = (LINK_LOSS_BURST, SITE_PARTITION, SITE_PARTITION_HEAL,
                     HOST_PARTITION, HOST_PARTITION_HEAL)
    KINDS = DEVICE_KINDS + INFRA_KINDS + NETWORK_KINDS

    def __init__(self, at, kind, target, interface=None, clear_after=None,
                 loss_rate=None):
        if kind not in self.KINDS:
            raise ValueError("unknown fault kind %r" % kind)
        if at < 0:
            raise ValueError("fault time must be >= 0")
        if kind == "interface_down":
            if interface is None:
                raise ValueError("interface_down requires interface=")
        elif interface is not None:
            raise ValueError(
                "interface= only applies to interface_down, not %r" % kind)
        if clear_after is not None:
            if kind in (self.CONTAINER_DOWN, self.AGENT_DOWN):
                raise ValueError(
                    "%s does not support clear_after (killed containers/"
                    "agents do not resurrect)" % kind)
            if kind in (self.SITE_PARTITION_HEAL, self.HOST_PARTITION_HEAL):
                raise ValueError(
                    "%s does not support clear_after (a heal is "
                    "instantaneous; schedule another partition instead)"
                    % kind)
            if clear_after <= 0:
                raise ValueError("clear_after must be > 0")
        if kind == self.HOST_PARTITION:
            if not isinstance(target, (list, tuple, set, frozenset)) \
                    or not target:
                raise ValueError(
                    "host_partition target must be a non-empty list of "
                    "host names (the island)")
            target = tuple(sorted(target))
        if kind == self.LINK_LOSS_BURST:
            if loss_rate is None:
                raise ValueError("link_loss_burst requires loss_rate=")
            if not 0.0 <= loss_rate < 1.0:
                raise ValueError("loss_rate must be within [0, 1)")
        elif loss_rate is not None:
            raise ValueError(
                "loss_rate= only applies to link_loss_burst, not %r" % kind)
        self.at = at
        self.kind = kind
        self.target = target
        self.interface = interface
        self.clear_after = clear_after
        self.loss_rate = loss_rate

    def __repr__(self):
        return "FaultEvent(t=%g, %s -> %s)" % (self.at, self.kind, self.target)


class FaultPlan:
    """A list of fault events applied to a running system.

    The plan validates *kill-window coherence* on construction and on
    every :meth:`add`: two ``host_down`` events on the same host whose
    down-windows overlap must agree on when the host comes back.
    Overlapping windows with incompatible ``clear_after`` would race the
    scheduled :meth:`Host.recover` calls -- the earlier recovery would
    resurrect the host in the middle of the later window, silently
    turning a designed outage into a flap.  Sequential (non-overlapping)
    windows on the same host are fine: that is exactly the
    rolling-upgrade pattern.
    """

    def __init__(self, events=()):
        self.events = sorted(events, key=lambda event: event.at)
        self._validate_kill_windows(self.events)

    def add(self, event):
        self._validate_kill_windows(self.events + [event])
        self.events.append(event)
        self.events.sort(key=lambda item: item.at)
        return event

    @staticmethod
    def _validate_kill_windows(events):
        windows = {}  # host -> [(start, end_or_None)]
        for event in events:
            if event.kind != FaultEvent.HOST_DOWN:
                continue
            start = event.at
            end = None if event.clear_after is None \
                else event.at + event.clear_after
            for other_start, other_end in windows.get(event.target, ()):
                latest_start = max(start, other_start)
                earliest_end = min(
                    end if end is not None else float("inf"),
                    other_end if other_end is not None else float("inf"),
                )
                if latest_start >= earliest_end:
                    continue  # disjoint (or merely touching) windows
                if end != other_end:
                    raise ValueError(
                        "overlapping host_down windows on %r with "
                        "incompatible clear_after: [%g, %s) vs [%g, %s) -- "
                        "the earlier recovery would resurrect the host "
                        "inside the later window" % (
                            event.target,
                            other_start, _window_end(other_end),
                            start, _window_end(end)))
            windows.setdefault(event.target, []).append((start, end))

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def _window_end(end):
    return "inf" if end is None else "%g" % end


def storage_blip_plan(storage_host, blip_at=20.0, blip_duration=4.0):
    """A transient storage-host outage aimed at the analyzer fetch window.

    The blip is short (a reboot, a failing switch port): shorter than one
    job timeout, long enough to swallow a QUERY_REF or its INFORM reply.
    Pre-retry analyzers returned a 0-record job from this; with bounded
    fetch retries the second attempt lands after the heal.
    """
    return FaultPlan([
        FaultEvent(blip_at, FaultEvent.HOST_DOWN, storage_host,
                   clear_after=blip_duration),
    ])


def dead_letter_heal_plan(dest_host, down_at=10.0, down_duration=30.0):
    """An outage long enough to exhaust retransmissions, then a heal.

    With default channel parameters (``ack_timeout=2``, ``backoff=2``,
    ``max_attempts=6``) a sender gives up after ~62s; pass a shorter
    ladder (e.g. ``max_attempts=4`` -> ~14s) so envelopes dead-letter
    *inside* ``down_duration`` and only a redelivery scheduler -- not a
    retransmission -- can get them across after the heal.
    """
    return FaultPlan([
        FaultEvent(down_at, FaultEvent.HOST_DOWN, dest_host,
                   clear_after=down_duration),
    ])


def site_partition_plan(site, partition_at=15.0, heal_after=25.0):
    """Sever one site from the rest of the mesh, then heal it.

    The window should comfortably exceed the mesh heartbeat timeout so
    detection (partition Finding, devices marked offline) is observable,
    and the run should extend well past the heal so redelivery drains
    parked envelopes back to ``classified == shipped``.
    """
    return FaultPlan([
        FaultEvent(partition_at, FaultEvent.SITE_PARTITION, site,
                   clear_after=heal_after),
    ])


def split_brain_plan(island_hosts, partition_at=15.0, heal_after=30.0):
    """Cut a split-brain island (e.g. the root's host plus half the
    analyzer hosts) out of the network, then heal it.

    Both halves stay internally healthy -- every host is ``up`` -- so
    only detection layered above the transport (gossip suspicion,
    heartbeat eviction) can observe the cut.  The window should exceed
    the gossip mesh's ``SUSPECT_ROUNDS + CONFIRM_ROUNDS`` intervals so
    both halves converge on their suspicion views before the heal.
    """
    return FaultPlan([
        FaultEvent(partition_at, FaultEvent.HOST_PARTITION,
                   tuple(island_hosts), clear_after=heal_after),
    ])


def cascade_plan(hosts, start_at=10.0, stagger=6.0, down_duration=15.0):
    """Rolling host failures correlated with load: each host fails
    ``stagger`` after the previous one, so the down-windows *overlap* --
    at the cascade's peak several hosts are dark at once and the
    survivors absorb the load.  Windows on different hosts may overlap
    freely; the plan validator only rejects incoherent windows on the
    same host.
    """
    if stagger <= 0:
        raise ValueError("stagger must be > 0")
    return FaultPlan([
        FaultEvent(start_at + index * stagger, FaultEvent.HOST_DOWN, host,
                   clear_after=down_duration)
        for index, host in enumerate(hosts)
    ])


def rolling_upgrade_plan(hosts, start_at=10.0, wave_gap=None,
                         restart_duration=5.0, waves=1):
    """Staggered restart waves: each wave bounces every host once
    (``host_down`` + recovery models the reboot, as in the robustness
    scorecard), waiting for one restart to finish before the next
    begins -- the disciplined upgrade that never takes two hosts down
    together, in contrast to :func:`cascade_plan`.
    """
    if restart_duration <= 0:
        raise ValueError("restart_duration must be > 0")
    if waves < 1:
        raise ValueError("waves must be >= 1")
    if wave_gap is None:
        wave_gap = 2.0 * restart_duration
    if wave_gap <= restart_duration:
        raise ValueError(
            "wave_gap (%g) must exceed restart_duration (%g): the next "
            "restart must not begin until the previous host is back"
            % (wave_gap, restart_duration))
    events = []
    at = start_at
    for _ in range(waves):
        for host in hosts:
            events.append(FaultEvent(
                at, FaultEvent.HOST_DOWN, host,
                clear_after=restart_duration))
            at += wave_gap
    return FaultPlan(events)


def apply_fault_plan(system, plan):
    """Schedule every fault in ``plan`` on a built grid system.

    Device faults resolve against ``system.devices``; container faults
    against ``system.platform.containers``; agent faults against the
    platform's agent registry; host faults against ``system.network``;
    loss bursts against the WAN or a site LAN; partitions against a site.
    Unknown targets and out-of-range interface indices raise immediately
    (misconfigured experiments should fail loudly).
    """
    for event in plan:
        if event.kind == FaultEvent.CONTAINER_DOWN:
            if event.target not in system.platform.containers:
                raise KeyError("unknown container %r" % event.target)
            system.sim.schedule(
                event.at, _kill_container, (system, event.target),
            )
        elif event.kind == FaultEvent.AGENT_DOWN:
            if system.platform.agent(event.target) is None:
                raise KeyError("unknown agent %r" % event.target)
            system.sim.schedule(
                event.at, _kill_agent, (system, event.target),
            )
        elif event.kind == FaultEvent.HOST_DOWN:
            host = system.network.hosts.get(event.target)
            if host is None:
                raise KeyError("unknown host %r" % event.target)
            system.sim.schedule(event.at, host.fail, ())
            if event.clear_after is not None:
                system.sim.schedule(
                    event.at + event.clear_after, host.recover, ())
        elif event.kind in (FaultEvent.SITE_PARTITION,
                            FaultEvent.SITE_PARTITION_HEAL):
            if event.target not in system.network.sites:
                raise KeyError("unknown site %r" % event.target)
            if event.kind == FaultEvent.SITE_PARTITION:
                system.sim.schedule(
                    event.at, system.network.partition_site, (event.target,))
                if event.clear_after is not None:
                    system.sim.schedule(
                        event.at + event.clear_after,
                        system.network.heal_site, (event.target,))
            else:
                system.sim.schedule(
                    event.at, system.network.heal_site, (event.target,))
        elif event.kind == FaultEvent.HOST_PARTITION:
            unknown = set(event.target) - set(system.network.hosts)
            if unknown:
                raise KeyError("unknown hosts %s" % sorted(unknown))
            system.sim.schedule(
                event.at, system.network.partition_hosts, (event.target,))
            if event.clear_after is not None:
                system.sim.schedule(
                    event.at + event.clear_after,
                    system.network.heal_hosts, ())
        elif event.kind == FaultEvent.HOST_PARTITION_HEAL:
            system.sim.schedule(event.at, system.network.heal_hosts, ())
        elif event.kind == FaultEvent.LINK_LOSS_BURST:
            _resolve_link(system.network, event.target)  # fail loudly now
            system.sim.schedule(
                event.at, _start_loss_burst,
                (system, event.target, event.loss_rate, event.clear_after),
            )
        else:
            device = system.devices.get(event.target)
            if device is None:
                raise KeyError("unknown device %r" % event.target)
            if event.kind == "interface_down":
                device.check_interface(event.interface)  # fail loudly now
            system.sim.schedule(
                event.at, device.inject_fault, (event.kind, event.interface),
            )
            if event.clear_after is not None:
                system.sim.schedule(
                    event.at + event.clear_after,
                    device.clear_fault,
                    (event.kind, event.interface),
                )


def _kill_container(system, container_name):
    """Kill one container; the host (and its other containers) stay up."""
    container = system.platform.containers.get(container_name)
    if container is not None:
        container.shutdown()


def _kill_agent(system, agent_name):
    """Kill one agent; its container keeps running."""
    agent = system.platform.agent(agent_name)
    if agent is not None and agent.container is not None:
        agent.container.remove(agent)


def _resolve_link(network, target):
    """The link a burst targets: "wan" or a site name (-> its LAN)."""
    if target == "wan":
        return network.wan
    site = network.sites.get(target)
    if site is None:
        raise KeyError("unknown link target %r (use \"wan\" or a site name)"
                       % target)
    return site.lan


def _start_loss_burst(system, target, loss_rate, clear_after):
    """Swap in a lossier LinkSpec; restore the original when it clears.

    The spec object is *replaced*, never mutated: default LAN/WAN specs
    are shared module-level singletons, and traffic already in flight
    keeps the loss rate it was launched with.
    """
    from repro.network.topology import LinkSpec

    network = system.network
    original = _resolve_link(network, target)
    burst = LinkSpec(original.latency, original.bandwidth, loss_rate)
    _install_link(network, target, burst)
    if clear_after is not None:
        system.sim.schedule(
            clear_after, _install_link, (network, target, original))


def _install_link(network, target, spec):
    if target == "wan":
        network.wan = spec
    else:
        network.sites[target].lan = spec
