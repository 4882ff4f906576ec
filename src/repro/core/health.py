"""Operational health: SLOs, burn-rate alerting and scorecards.

The flight recorder answers forensic questions after a run; this module
answers the operator's question *during* one -- "is the grid healthy
right now, and which shard/site/stage is burning its latency budget?"
Three pieces:

* **Per-stage latency histograms**, fed *in line* from the span close
  hook (:attr:`~repro.simkernel.telemetry.SpanRecorder.close_hooks`):
  every closed Figure-2 pipeline span lands in a
  :class:`~repro.simkernel.histogram.LatencyHistogram`, so stage
  p50/p95/p99 are available at any instant without re-scanning spans.

* **SLO burn-rate monitoring** (:class:`SLOSpec` + :class:`SLOTracker`):
  the standard SRE multi-window scheme.  An SLO "p99 of dispatch < 5s
  over 1h" grants an error budget of 1% ; the *burn rate* is how fast
  the deployment consumes it (bad-event fraction / budget).  A burn
  alert trips only when **both** a fast window (default ``window/12``,
  i.e. 5 min against 1 h) and the slow window exceed their thresholds:
  the fast window makes alerts prompt and self-clearing, the slow
  window keeps blips from paging.  Trips and clears ship as
  ``slo-burn`` / ``slo-burn-clear`` :class:`~repro.core.reports.Finding`
  objects through the *existing* report/alert path, so SLO violations
  land in the same interface-grid pipeline the grid already audits.

* **Scorecards** (:func:`container_scorecard` et al.): every container
  folds queue depth, heartbeat freshness, host/container liveness,
  parked dead-letters and active burns into a green/degraded/red state,
  aggregated per site and overall -- the root's view of its own grid,
  and (via the federation gateways' beacon ``health`` field) each
  site's view of its peers.

A span closing with status ``timeout``/``evicted``/``dead-letter``/
``abandoned``/``expired`` counts against the budget regardless of
duration -- that is what makes burns trip *during* an outage, when the
slow spans are precisely the ones not closing normally yet.

Everything records in O(1) and holds bounded state (log-bucketed
histograms, fixed-bin sliding windows), so the monitor is safe to leave
on for week-long runs.  The monitor only exists when
``GridTopologySpec(slos=...)`` is set: without it, deployments carry
zero health state and remain byte-identical to previous releases.
"""

from repro.core.liveness import DOWN
from repro.simkernel.histogram import LatencyHistogram
from repro.simkernel.telemetry import PIPELINE_STAGES

#: Span statuses that consume error budget no matter how fast they closed.
BAD_STATUSES = frozenset(
    ("timeout", "evicted", "dead-letter", "abandoned", "expired"))

#: Scorecard states, best to worst.
GREEN, DEGRADED, RED = "green", "degraded", "red"
_STATE_RANK = {GREEN: 0, DEGRADED: 1, RED: 2}

#: Which grid's containers a burning stage implicates on the scorecard.
STAGE_GRID = {
    "collect": "collection", "ship": "collection",
    "classify": "classification", "notify": "classification",
    "dispatch": "analysis", "analyze": "analysis",
    "report": "interface",
}

#: CPU queue depth at which a container counts as backlogged.
QUEUE_DEPTH_DEGRADED = 5


def worst_state(states):
    """The worst of an iterable of scorecard states (green when empty)."""
    worst = GREEN
    for state in states:
        if _STATE_RANK[state] > _STATE_RANK[worst]:
            worst = state
    return worst


class SLOSpec:
    """A declarative latency objective on one pipeline stage.

    Args:
        stage: span name to watch ("dispatch", "ship", ...; usually one
            of the Figure-2 :data:`PIPELINE_STAGES`).
        p: target percentile in (0, 100) -- "p99" is ``p=99``.  The
            error budget is ``1 - p/100``.
        target: latency objective in simulated seconds; a span slower
            than this (or closing with a failure status) is a bad event.
        window: slow-burn window in simulated seconds (SRE default: 1h).
        fast_window: fast-burn window; defaults to ``window / 12``
            (5 min against the 1 h default).
        burn_threshold: both windows' burn rate must reach this to trip
            (2.0 = burning budget twice as fast as sustainable).
        clear_threshold: the fast burn rate must drop below this to
            clear a tripped alert (hysteresis).
    """

    __slots__ = ("stage", "p", "target", "window", "fast_window",
                 "burn_threshold", "clear_threshold")

    def __init__(self, stage, p=99.0, target=1.0, window=3600.0,
                 fast_window=None, burn_threshold=2.0, clear_threshold=1.0):
        if not stage:
            raise ValueError("stage must be a non-empty span name")
        if not 0 < p < 100:
            raise ValueError("p must be in (0, 100) (got %r)" % (p,))
        if target <= 0:
            raise ValueError("target must be positive")
        if window <= 0:
            raise ValueError("window must be positive")
        if fast_window is None:
            fast_window = window / 12.0
        if not 0 < fast_window <= window:
            raise ValueError("fast_window must be in (0, window]")
        if clear_threshold > burn_threshold:
            raise ValueError("clear_threshold must not exceed burn_threshold")
        self.stage = stage
        self.p = p
        self.target = target
        self.window = window
        self.fast_window = fast_window
        self.burn_threshold = burn_threshold
        self.clear_threshold = clear_threshold

    @property
    def budget(self):
        """Error budget: the tolerable bad-event fraction."""
        return 1.0 - self.p / 100.0

    def to_dict(self):
        return {
            "stage": self.stage, "p": self.p, "target": self.target,
            "window": self.window, "fast_window": self.fast_window,
            "burn_threshold": self.burn_threshold,
            "clear_threshold": self.clear_threshold,
        }

    def __repr__(self):
        return "SLOSpec(%s p%g < %gs over %gs)" % (
            self.stage, self.p, self.target, self.window)


class _SlidingWindow:
    """Fixed-bin sliding-window good/bad counter: O(1) record, O(bins) read.

    Events land in ``bins`` coarse time buckets; buckets older than the
    window are pruned on write and ignored on read, so memory stays
    bounded no matter how long the run is.  Bin granularity slightly
    blurs the window edge (by at most ``window / bins``), which is fine
    for burn-rate purposes.
    """

    __slots__ = ("window", "bins", "_width", "_counts")

    def __init__(self, window, bins=30):
        self.window = window
        self.bins = bins
        self._width = window / bins
        self._counts = {}  # bin index -> [total, bad]

    def record(self, now, bad):
        index = int(now / self._width)
        entry = self._counts.get(index)
        if entry is None:
            entry = self._counts[index] = [0, 0]
            oldest = index - self.bins
            stale = [key for key in self._counts if key <= oldest]
            for key in stale:
                del self._counts[key]
        entry[0] += 1
        if bad:
            entry[1] += 1

    def totals(self, now):
        """``(total, bad)`` over the trailing window ending at ``now``."""
        oldest = int(now / self._width) - self.bins
        total = bad = 0
        for index, (events, bad_events) in self._counts.items():
            if index > oldest:
                total += events
                bad += bad_events
        return total, bad

    def bad_fraction(self, now):
        total, bad = self.totals(now)
        if not total:
            return 0.0
        return bad / total


class SLOTracker:
    """Burn-rate state machine for one :class:`SLOSpec`.

    Feed it every closed span of its stage (:meth:`record`), poll it
    periodically (:meth:`evaluate`); it answers ``"raise"`` when the
    multi-window trip condition first holds, ``"clear"`` once the fast
    burn falls back below the clear threshold, and ``None`` otherwise.
    Usable standalone (the ``repro-sim top --follow`` replay drives it
    straight from streamed spans, no simulator required).
    """

    def __init__(self, slo):
        self.slo = slo
        self.fast = _SlidingWindow(slo.fast_window)
        self.slow = _SlidingWindow(slo.window)
        self.burning = False
        self.raised = 0
        self.cleared = 0
        self.events = []  # [(time, "raise"/"clear", fast_burn, slow_burn)]

    def record(self, now, duration, status="ok"):
        """Account one closed span; returns whether it was a bad event."""
        bad = status in BAD_STATUSES or (
            duration is not None and duration > self.slo.target)
        self.fast.record(now, bad)
        self.slow.record(now, bad)
        return bad

    def burn_rates(self, now):
        budget = self.slo.budget
        return (self.fast.bad_fraction(now) / budget,
                self.slow.bad_fraction(now) / budget)

    def evaluate(self, now):
        fast_burn, slow_burn = self.burn_rates(now)
        if not self.burning:
            if fast_burn >= self.slo.burn_threshold \
                    and slow_burn >= self.slo.burn_threshold:
                self.burning = True
                self.raised += 1
                self.events.append((now, "raise", fast_burn, slow_burn))
                return "raise"
        elif fast_burn < self.slo.clear_threshold:
            self.burning = False
            self.cleared += 1
            self.events.append((now, "clear", fast_burn, slow_burn))
            return "clear"
        return None

    def snapshot(self, now):
        fast_burn, slow_burn = self.burn_rates(now)
        return {
            "slo": self.slo.to_dict(),
            "fast_burn": fast_burn,
            "slow_burn": slow_burn,
            "burning": self.burning,
            "raised": self.raised,
            "cleared": self.cleared,
        }


# -- scorecards -----------------------------------------------------------


def container_scorecard(container, root=None, channel=None,
                        burning_services=frozenset()):
    """One container's health state with the reasons that produced it.

    * **red** -- the container (or its host) is down, or the processor
      root evicted it / its heartbeats have gone fully stale;
    * **degraded** -- heartbeats past half the timeout, CPU queue
      backlog, parked dead-letters addressed to its host, or an active
      burn on a stage its service owns;
    * **green** -- none of the above.
    """
    reasons = []
    state = GREEN

    def mark(new_state, reason):
        nonlocal state
        reasons.append(reason)
        if _STATE_RANK[new_state] > _STATE_RANK[state]:
            state = new_state

    if not container.alive:
        mark(RED, "container down")
    if not container.host.up:
        mark(RED, "host down")
    if root is not None:
        detector = root.detector
        silence = detector.silence(container.name)
        if detector.status(container.name) == DOWN:
            mark(RED, "evicted by heartbeat detector")
        elif detector.down_after is not None and silence is not None:
            if silence > detector.down_after:
                mark(RED, "heartbeat stale (%.1fs)" % silence)
            elif silence > detector.down_after / 2.0:
                mark(DEGRADED, "heartbeat aging (%.1fs)" % silence)
    if container.host.cpu.queue_length >= QUEUE_DEPTH_DEGRADED:
        mark(DEGRADED,
             "cpu queue depth %d" % container.host.cpu.queue_length)
    if channel is not None:
        parked = channel.parked_count(container.host.name)
        if parked:
            mark(DEGRADED, "%d parked dead-letters" % parked)
    for service in container.services:
        if service in burning_services:
            mark(DEGRADED, "slo burn on %s stage" % service)
            break
    return {
        "state": state,
        "host": container.host.name,
        "site": container.host.site.name,
        "services": list(container.services),
        "reasons": reasons,
    }


def aggregate_scorecards(cards):
    """Fold per-container cards into per-site states and an overall state."""
    sites = {}
    for card in cards.values():
        sites.setdefault(card["site"], []).append(card["state"])
    site_states = {site: worst_state(states)
                   for site, states in sorted(sites.items())}
    return {
        "containers": cards,
        "sites": site_states,
        "overall": worst_state(site_states.values()),
    }


class HealthMonitor:
    """The live health layer of one grid deployment.

    Attaches to the deployment's telemetry span-close hook (in-line
    histogram + window updates, O(1) per span, no events scheduled) and
    runs one periodic checker process that evaluates every SLO tracker
    and ships ``slo-burn`` / ``slo-burn-clear`` findings from the
    processor root to the interface grid over the ordinary
    ``management-report`` path -- so burns raise
    :class:`~repro.core.reports.Alert` objects exactly like any other
    major finding.

    Args:
        system: the :class:`~repro.core.system.GridManagementSystem`
            facade (telemetry must be enabled).
        slos: iterable of :class:`SLOSpec`.
        check_interval: burn evaluation period, simulated seconds.
    """

    def __init__(self, system, slos, check_interval=5.0):
        if system.telemetry is None:
            raise ValueError("HealthMonitor requires telemetry")
        self.system = system
        self.sim = system.sim
        self.slos = list(slos)
        self.check_interval = check_interval
        self.trackers = [SLOTracker(slo) for slo in self.slos]
        self._trackers_by_stage = {}
        for tracker in self.trackers:
            self._trackers_by_stage.setdefault(
                tracker.slo.stage, []).append(tracker)
        self.stage_histograms = {}  # stage -> LatencyHistogram
        self._watched = set(PIPELINE_STAGES) | set(self._trackers_by_stage)
        self.findings_shipped = 0
        self._process = None
        # Containers ever seen on the platform.  A killed container is
        # deregistered from the platform registry, but operators need it
        # to show up RED on the scorecard -- not to vanish.
        self._known_containers = {}

    # -- wiring ------------------------------------------------------------

    def attach(self):
        """Hook the span feed and start the periodic checker."""
        for container in self.system.platform.containers.values():
            self._known_containers[container.name] = container
        self.system.telemetry.recorder.close_hooks.append(self.observe)
        self._process = self.sim.spawn(self._run(), name="health-monitor")
        return self

    def observe(self, span):
        """Span-close hook: in-line histogram + burn-window accounting."""
        if span.name not in self._watched:
            return
        duration = span.duration
        if span.name in self._trackers_by_stage:
            for tracker in self._trackers_by_stage[span.name]:
                tracker.record(span.t_end, duration, span.status)
        if span.name in PIPELINE_STAGES and duration is not None:
            histogram = self.stage_histograms.get(span.name)
            if histogram is None:
                histogram = self.stage_histograms[span.name] = \
                    LatencyHistogram()
            histogram.record(duration)

    def _run(self):
        while True:
            yield self.check_interval
            self.evaluate()

    # -- burn evaluation ---------------------------------------------------

    def evaluate(self):
        """Evaluate every tracker once; ship findings for transitions."""
        now = self.sim.now
        for tracker in self.trackers:
            transition = tracker.evaluate(now)
            if transition == "raise":
                self._ship_finding(tracker, "slo-burn", "major", now)
            elif transition == "clear":
                self._ship_finding(tracker, "slo-burn-clear", "info", now)

    def _ship_finding(self, tracker, kind, severity, now):
        from repro.agents.acl import ACLMessage, Performative
        from repro.core.reports import Finding, ManagementReport

        slo = tracker.slo
        fast_burn, slow_burn = tracker.burn_rates(now)
        root = self.system.root
        finding = Finding(
            kind=kind,
            severity=severity,
            device="",
            site=root.host.site.name,
            detail={
                "stage": slo.stage,
                "p": slo.p,
                "target": slo.target,
                "fast_burn": round(fast_burn, 3),
                "slow_burn": round(slow_burn, 3),
            },
        )
        report = ManagementReport(
            dataset_id="slo-%s-p%g" % (slo.stage, slo.p),
            findings=[finding],
            records_analyzed=0,
            generated_at=now,
            kind="health",
        )
        root.send(ACLMessage(
            Performative.INFORM,
            sender=root.name,
            receiver=self.system.interface.name,
            content={"report": report},
            ontology="management-report",
            size_units=root.cost_model.notify_size,
        ))
        self.findings_shipped += 1

    # -- scorecards --------------------------------------------------------

    def burning_services(self):
        """Services implicated by currently-burning SLO stages."""
        return frozenset(
            STAGE_GRID.get(tracker.slo.stage, tracker.slo.stage)
            for tracker in self.trackers if tracker.burning
        )

    def scorecards(self):
        """Per-container / per-site / overall health states, right now."""
        system = self.system
        burning = self.burning_services()
        for container in system.platform.containers.values():
            self._known_containers[container.name] = container
        cards = {}
        for container in self._known_containers.values():
            cards[container.name] = container_scorecard(
                container, root=system.root,
                channel=system.reliable_channel,
                burning_services=burning,
            )
        return aggregate_scorecards(cards)

    # -- reporting ---------------------------------------------------------

    def active_burns(self):
        return [tracker.slo.to_dict()
                for tracker in self.trackers if tracker.burning]

    def stage_latency(self, qs=(50, 95, 99)):
        return {
            stage: self.stage_histograms[stage].summary(qs)
            for stage in PIPELINE_STAGES
            if stage in self.stage_histograms
        }

    def snapshot(self):
        """One JSON-ready view of the whole health layer (dashboard feed)."""
        now = self.sim.now
        payload = {
            "time": now,
            "stage_latency": self.stage_latency(),
            "slos": [tracker.snapshot(now) for tracker in self.trackers],
            "scorecards": self.scorecards(),
            "burn_events": [
                {"time": time, "event": event, "stage": tracker.slo.stage,
                 "p": tracker.slo.p, "fast_burn": round(fast, 3),
                 "slow_burn": round(slow, 3)}
                for tracker in self.trackers
                for time, event, fast, slow in tracker.events
            ],
            "active_burns": self.active_burns(),
            "findings_shipped": self.findings_shipped,
        }
        channel = self.system.reliable_channel
        if channel is not None:
            payload["reliable_channel"] = channel.stats()
        return payload

    def __repr__(self):
        return "HealthMonitor(slos=%d, burning=%d)" % (
            len(self.trackers), len(self.active_burns()))
