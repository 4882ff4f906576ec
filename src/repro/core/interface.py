"""The Interface Grid (IG).

"The grid of interface agents is the communication channel between the
grid and the network manager [...] flexible and multi-protocol" (section
3.4).  The interface agent receives consolidated reports from the
processor grid, renders them through pluggable channels (console / HTML /
e-mail flavoured), raises alerts for critical findings, and accepts user
feedback: new rules pushed into analyzer knowledge bases and new goals
pushed to collectors.
"""

from repro.agents.acl import ACLMessage, MessageTemplate, Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import CyclicBehaviour
from repro.core.reports import Alert


class Channel:
    """A presentation channel; rendering costs CPU on the interface host."""

    def __init__(self, name, render_cpu_per_report=1.0):
        self.name = name
        self.render_cpu_per_report = render_cpu_per_report
        self.delivered_reports = []
        self.delivered_alerts = []

    def render_report(self, report):
        """Format a report; returns the rendered text."""
        lines = ["[%s] %s: %d findings over %d records" % (
            self.name, report.report_id, len(report.findings),
            report.records_analyzed,
        )]
        for finding in report.deduplicated():
            lines.append("  - %s (%s) device=%s site=%s" % (
                finding.kind, finding.severity, finding.device, finding.site,
            ))
        return "\n".join(lines)

    def deliver_report(self, report, rendered):
        self.delivered_reports.append((report, rendered))

    def deliver_alert(self, alert):
        self.delivered_alerts.append(alert)

    def __repr__(self):
        return "Channel(%r, reports=%d, alerts=%d)" % (
            self.name, len(self.delivered_reports), len(self.delivered_alerts),
        )


class HtmlChannel(Channel):
    """HTML page flavour: heavier rendering."""

    def __init__(self):
        super().__init__("html", render_cpu_per_report=2.0)

    def render_report(self, report):
        rows = "".join(
            "<tr><td>%s</td><td>%s</td><td>%s</td></tr>"
            % (finding.kind, finding.severity, finding.device)
            for finding in report.deduplicated()
        )
        return "<html><body><h1>%s</h1><table>%s</table></body></html>" % (
            report.report_id, rows,
        )


class EmailChannel(Channel):
    """E-mail flavour: light rendering, used mainly for alerts."""

    def __init__(self):
        super().__init__("email", render_cpu_per_report=0.5)


class InterfaceAgent(Agent):
    """Receives reports/alerts; injects user feedback into the system.

    Args:
        name: agent name.
        channels: presentation channels (default: one console channel).
        alert_min_severity: findings at or above this severity raise alerts.
    """

    def __init__(self, name, channels=None, alert_min_severity="major"):
        super().__init__(name)
        self.channels = list(channels) if channels else [Channel("console")]
        self.alert_min_severity = alert_min_severity
        self.reports = []
        self.alerts = []
        self.feedback_log = []
        self._report_waiters = []  # (count, SimEvent)
        self.subscribers = {}      # agent name -> minimum severity
        # -- remote-site degradation (federation mesh) ----------------------
        self.site_status = {}      # site -> last SITE_STATUS content
        self._device_site = {}     # device name -> owning site

    def setup(self):
        interface = self

        class Reports(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology="management-report",
                ))
                if message is not None:
                    yield from interface._handle_report(
                        message.content["report"], message=message,
                    )

        class Subscriptions(CyclicBehaviour):
            """FIPA SUBSCRIBE: user agents register for alert pushes."""

            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.SUBSCRIBE,
                    ontology="alert-subscription",
                ))
                if message is not None:
                    interface._handle_subscription(message)

        class SiteStatus(CyclicBehaviour):
            """Degradation notices from the local site gateway."""

            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.INFORM,
                    ontology="site-status",
                ))
                if message is not None:
                    interface._handle_site_status(message)

        self.add_behaviour(Reports("reports"))
        self.add_behaviour(Subscriptions("subscriptions"))
        self.add_behaviour(SiteStatus("site-status"))

    # -- report handling -----------------------------------------------------

    def _handle_report(self, report, message=None):
        from repro.core.reports import severity_rank

        for channel in self.channels:
            if channel.render_cpu_per_report:
                yield self.cpu.use(
                    channel.render_cpu_per_report, label="render",
                )
            rendered = channel.render_report(report)
            channel.deliver_report(report, rendered)
        threshold = severity_rank(self.alert_min_severity)
        for finding in report.deduplicated():
            if severity_rank(finding.severity) >= threshold:
                alert = Alert(self.sim.next_id("alert"), finding,
                              raised_at=self.sim.now)
                self.alerts.append(alert)
                for channel in self.channels:
                    channel.deliver_alert(alert)
                self._push_alert(alert)
        self.reports.append(report)
        telemetry = self.telemetry
        if telemetry is not None and message is not None \
                and message.trace_context is not None:
            # Last stop of the pipeline: the report span closes once the
            # report is rendered and every alert has gone out.
            telemetry.recorder.end(
                message.trace_context[1], findings=len(report.findings),
            )
        self._notify_report_waiters()

    def _push_alert(self, alert):
        """Push an alert to every qualifying subscriber."""
        from repro.agents.acl import ACLMessage, Performative
        from repro.core.reports import severity_rank

        for subscriber, min_severity in self.subscribers.items():
            if severity_rank(alert.finding.severity) < \
                    severity_rank(min_severity):
                continue
            # Alerts are the one output a manager must not miss; they use
            # the reliable channel when one is installed.
            self.send_reliable(ACLMessage(
                Performative.INFORM,
                sender=self.name,
                receiver=subscriber,
                content={
                    "alert_id": alert.alert_id,
                    "kind": alert.finding.kind,
                    "severity": alert.finding.severity,
                    "device": alert.finding.device,
                    "site": alert.finding.site,
                },
                ontology="alert",
                size_units=alert.size_units,
            ))

    def _handle_subscription(self, message):
        from repro.agents.acl import Performative

        content = message.content or {}
        min_severity = content.get("min_severity", self.alert_min_severity)
        if content.get("cancel"):
            self.subscribers.pop(str(message.sender), None)
        else:
            self.subscribers[str(message.sender)] = min_severity
        self.reply_to(message, Performative.CONFIRM,
                      content={"subscribed": not content.get("cancel", False)})

    def _notify_report_waiters(self):
        still_waiting = []
        for count, event in self._report_waiters:
            if len(self.reports) >= count and not event.triggered:
                event.trigger(len(self.reports))
            elif not event.triggered:
                still_waiting.append((count, event))
        self._report_waiters = still_waiting

    def reports_event(self, count):
        """A SimEvent triggered once ``count`` reports have arrived."""
        event = self.sim.event("%s.reports>=%d" % (self.name, count))
        if len(self.reports) >= count:
            event.trigger(len(self.reports))
        else:
            self._report_waiters.append((count, event))
        return event

    def all_findings(self):
        findings = []
        for report in self.reports:
            findings.extend(report.findings)
        return findings

    # -- remote-site degradation (federation mesh) --------------------------

    def _handle_site_status(self, message):
        from repro.agents.ontology import SITE_STATUS

        content = SITE_STATUS.validate(message.content)
        self.site_status[content["site"]] = dict(content)
        for device in content["devices"]:
            self._device_site[device] = content["site"]

    def partitioned_sites(self):
        return sorted(
            site for site, status in self.site_status.items()
            if status["status"] == "partitioned"
        )

    def device_status(self, device_name):
        """"offline" while the device's site is partitioned, else "online".

        Only devices named in a SITE_STATUS notice are tracked; everything
        else (including all local devices) is online by definition.
        """
        site = self._device_site.get(device_name)
        if site is None:
            return "online"
        status = self.site_status.get(site)
        if status is not None and status["status"] == "partitioned":
            return "offline"
        return "online"

    def offline_devices(self):
        """Devices currently behind a partitioned site boundary."""
        return sorted(
            device for device in self._device_site
            if self.device_status(device) == "offline"
        )

    def stale_findings(self):
        """Findings whose source site is currently partitioned.

        The degradation contract: data from a severed site is never
        silently stale -- the manager can always ask which of the
        findings on screen come from a site the mesh cannot reach.
        """
        partitioned = set(self.partitioned_sites())
        if not partitioned:
            return []
        return [
            finding for finding in self.all_findings()
            if finding.site in partitioned
            or self._device_site.get(finding.device) in partitioned
        ]

    # -- user feedback (input channel) -------------------------------------------

    def submit_rule(self, rule, analyzer_names):
        """Push a learned rule to analyzer agents (the paper's feedback loop).

        Rules are injected into each analyzer's knowledge base; duplicate
        names are skipped per-analyzer and reported back.
        """
        skipped = []
        for analyzer_name in analyzer_names:
            analyzer = self.platform.agent(analyzer_name)
            if analyzer is None:
                skipped.append(analyzer_name)
                continue
            if rule.name in analyzer.knowledge_base:
                skipped.append(analyzer_name)
                continue
            analyzer.knowledge_base.learn(rule)
        self.feedback_log.append(("rule", rule.name, tuple(analyzer_names)))
        return skipped

    def submit_rule_spec(self, spec, analyzer_names):
        """Transmit a declarative rule spec to analyzers over ACL.

        Unlike :meth:`submit_rule` (direct in-process injection used by
        drivers), this is the paper's actual transmission path: the spec
        travels as message content and each analyzer builds and learns the
        rule itself, confirming or refusing by reply.
        """
        from repro.agents.acl import ACLMessage, Performative

        for analyzer_name in analyzer_names:
            self.send(ACLMessage(
                Performative.INFORM,
                sender=self.name,
                receiver=analyzer_name,
                content=spec.to_dict(),
                ontology="learn-rule",
                size_units=0.5,
            ))
        self.feedback_log.append(
            ("rule-spec", spec.factory, tuple(analyzer_names)))

    def submit_goal(self, goal, collector_name):
        """Push a new collection goal to a collector agent."""
        collector = self.platform.agent(collector_name)
        if collector is None:
            raise KeyError("unknown collector %r" % collector_name)
        collector.add_goal(goal)
        self.feedback_log.append(("goal", repr(goal), collector_name))

    def __repr__(self):
        return "InterfaceAgent(%r, reports=%d, alerts=%d)" % (
            self.name, len(self.reports), len(self.alerts),
        )
