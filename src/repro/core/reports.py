"""Management reports, findings and alerts.

The processor grid's output: findings (problems and incidents found by
inference) are aggregated into :class:`ManagementReport` objects, and
critical findings additionally raise :class:`Alert` notifications, both of
which travel to the interface grid for presentation.
"""

#: Severity ordering used to decide what becomes an alert.
SEVERITY_ORDER = ("info", "warning", "minor", "major", "critical")


def severity_rank(severity):
    """Numeric rank of a severity (unknown severities rank lowest)."""
    try:
        return SEVERITY_ORDER.index(severity)
    except ValueError:
        return -1


class Finding:
    """One analysis conclusion (a ``problem`` or ``incident`` fact)."""

    def __init__(self, kind, severity, device, site="", detail=None, level=1):
        self.kind = kind
        self.severity = severity
        self.device = device
        self.site = site
        self.detail = dict(detail or {})
        self.level = level

    @classmethod
    def from_fact(cls, fact, level=1):
        """Build a finding from a ``problem``/``incident`` fact."""
        if fact.type == "incident":
            device = ",".join(fact.get("devices", ()))
        else:
            device = fact.get("device", "")
        detail = {
            name: value for name, value in fact.attrs.items()
            if name not in ("kind", "severity", "device", "site")
        }
        return cls(
            kind=fact.get("kind", fact.type),
            severity=fact.get("severity", "warning"),
            device=device,
            site=fact.get("site", ""),
            detail=detail,
            level=level,
        )

    @property
    def is_critical(self):
        return severity_rank(self.severity) >= severity_rank("major")

    def key(self):
        """Dedup key (kind, device, site)."""
        return (self.kind, self.device, self.site)

    def __repr__(self):
        return "Finding(%s/%s @ %s, L%d)" % (
            self.kind, self.severity, self.device or self.site, self.level,
        )


class ManagementReport:
    """A consolidated report over one analyzed dataset.

    ``report_id`` comes from the issuing deployment's simulator
    (``sim.next_id("report")``), so identical runs name reports alike.
    """

    def __init__(self, report_id, dataset_id, findings, records_analyzed,
                 generated_at, kind="analysis"):
        self.report_id = report_id
        self.dataset_id = dataset_id
        self.findings = list(findings)
        self.records_analyzed = records_analyzed
        self.generated_at = generated_at
        self.kind = kind
        self.size_units = 2.0 + 0.2 * len(self.findings)

    def by_severity(self):
        buckets = {}
        for finding in self.findings:
            buckets.setdefault(finding.severity, []).append(finding)
        return buckets

    def critical_findings(self):
        return [finding for finding in self.findings if finding.is_critical]

    def deduplicated(self):
        """Findings with duplicate (kind, device, site) collapsed."""
        seen = {}
        for finding in self.findings:
            key = finding.key()
            if key not in seen or severity_rank(finding.severity) > severity_rank(
                seen[key].severity
            ):
                seen[key] = finding
        return list(seen.values())

    def __len__(self):
        return len(self.findings)

    def __repr__(self):
        return "ManagementReport(%s: %d findings over %d records)" % (
            self.report_id, len(self.findings), self.records_analyzed,
        )


class Alert:
    """An out-of-band notification for a critical finding; ``alert_id``
    comes from ``sim.next_id("alert")``, like a report's id."""

    def __init__(self, alert_id, finding, raised_at, channel="console"):
        self.alert_id = alert_id
        self.finding = finding
        self.raised_at = raised_at
        self.channel = channel
        self.size_units = 0.5

    def __repr__(self):
        return "Alert(%s: %s via %s)" % (
            self.alert_id, self.finding.kind, self.channel,
        )
