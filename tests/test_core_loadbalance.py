"""Unit tests for placement policies and reports/findings."""

import pytest

from repro.agents.container import ResourceProfile
from repro.core.loadbalance import (
    CapacityWeightedPolicy,
    IdleFirstPolicy,
    KnowledgeFirstPolicy,
    NegotiatedPolicy,
    PlacementJob,
    RoundRobinPolicy,
    make_policy,
    policy_names,
)
from repro.core.reports import (
    Alert,
    Finding,
    ManagementReport,
    severity_rank,
)
from repro.rules.facts import Fact


def profile(name, cpu=10.0, services=("analysis",), knowledge=(),
            queue=0, busy=0):
    return ResourceProfile(
        container_name=name, host_name=name + "-host", cpu_capacity=cpu,
        disk_capacity=10.0, services=services, knowledge=knowledge,
        cpu_queue_length=queue, busy_agents=busy,
    )


def job(cluster="performance", records=10, cpu_units=200.0):
    return PlacementJob("j1", cluster, records, cpu_units)


class TestPolicies:
    def test_round_robin_rotates(self):
        policy = RoundRobinPolicy()
        profiles = [profile("a"), profile("b")]
        picks = [policy.choose(job(), profiles).container_name
                 for _ in range(4)]
        assert picks == ["a", "b", "a", "b"]

    def test_service_filter_applies_to_all(self):
        profiles = [profile("a", services=("storage",))]
        for name in policy_names():
            policy = make_policy(name)
            assert policy.choose(job(), profiles) in (None, [])

    def test_idle_first_prefers_idle(self):
        policy = IdleFirstPolicy()
        profiles = [profile("busy", queue=3), profile("calm", queue=0)]
        assert policy.choose(job(), profiles).container_name == "calm"

    def test_idle_first_falls_back_to_shortest_queue(self):
        policy = IdleFirstPolicy()
        profiles = [profile("worse", queue=5, busy=1),
                    profile("better", queue=2, busy=1)]
        assert policy.choose(job(), profiles).container_name == "better"

    def test_capacity_prefers_fast_host(self):
        policy = CapacityWeightedPolicy()
        profiles = [profile("slow", cpu=5.0), profile("fast", cpu=50.0)]
        assert policy.choose(job(), profiles).container_name == "fast"

    def test_capacity_penalizes_backlog(self):
        policy = CapacityWeightedPolicy()
        profiles = [profile("loaded", cpu=10.0, queue=20),
                    profile("empty", cpu=10.0, queue=0)]
        assert policy.choose(job(), profiles).container_name == "empty"

    def test_knowledge_filters_then_weighs(self):
        policy = KnowledgeFirstPolicy()
        profiles = [
            profile("wrong", cpu=100.0, knowledge=("storage",)),
            profile("right", cpu=5.0, knowledge=("performance",)),
        ]
        assert policy.choose(job("performance"), profiles).container_name \
            == "right"

    def test_knowledge_falls_back_to_generalists(self):
        policy = KnowledgeFirstPolicy()
        profiles = [profile("generalist", knowledge=())]
        assert policy.choose(job("traffic"), profiles).container_name \
            == "generalist"

    def test_negotiated_returns_candidate_pool(self):
        policy = NegotiatedPolicy()
        assert policy.needs_negotiation
        # generalists (empty knowledge) stay in the pool; specialists of
        # other areas are filtered out
        profiles = [
            profile("a", knowledge=("performance",)),
            profile("b"),
            profile("c", knowledge=("storage",)),
        ]
        pool = policy.choose(job("performance"), profiles)
        assert [p.container_name for p in pool] == ["a", "b"]

    def test_empty_candidates_handled(self):
        for name in policy_names():
            policy = make_policy(name)
            assert policy.choose(job(), []) in (None, [])

    def test_make_policy_unknown(self):
        with pytest.raises(KeyError):
            make_policy("clairvoyant")

    def test_deterministic_tiebreak_by_name(self):
        policy = CapacityWeightedPolicy()
        profiles = [profile("bbb"), profile("aaa")]
        assert policy.choose(job(), profiles).container_name == "aaa"


class TestFindingsAndReports:
    def test_severity_ranking(self):
        assert severity_rank("critical") > severity_rank("major")
        assert severity_rank("major") > severity_rank("warning")
        assert severity_rank("unknown") == -1

    def test_finding_from_problem_fact(self):
        fact = Fact("problem", kind="high-cpu", severity="major",
                    device="d1", site="s1", value=95, metric="cpu_load")
        finding = Finding.from_fact(fact, level=2)
        assert finding.kind == "high-cpu"
        assert finding.device == "d1"
        assert finding.detail["value"] == 95
        assert finding.is_critical

    def test_finding_from_incident_fact(self):
        fact = Fact("incident", kind="site-overload", severity="critical",
                    site="s1", devices=("d1", "d2"))
        finding = Finding.from_fact(fact, level=3)
        assert finding.device == "d1,d2"
        assert finding.level == 3

    def test_report_dedup_keeps_worst_severity(self):
        low = Finding("high-cpu", "warning", "d1", "s1")
        high = Finding("high-cpu", "critical", "d1", "s1")
        other = Finding("low-disk", "minor", "d2", "s1")
        report = ManagementReport("report-1", "ds", [low, high, other], 10, 5.0)
        deduped = report.deduplicated()
        assert len(deduped) == 2
        kept = {f.kind: f.severity for f in deduped}
        assert kept["high-cpu"] == "critical"

    def test_report_by_severity_and_critical(self):
        findings = [
            Finding("a", "critical", "d1"),
            Finding("b", "warning", "d2"),
        ]
        report = ManagementReport("report-1", "ds", findings, 5, 1.0)
        assert len(report.by_severity()["critical"]) == 1
        assert len(report.critical_findings()) == 1
        assert len(report) == 2

    def test_report_size_grows_with_findings(self):
        small = ManagementReport("report-1", "ds", [], 1, 0.0)
        big = ManagementReport(
            "report-2", "ds", [Finding("k", "minor", "d")] * 10, 1, 0.0)
        assert big.size_units > small.size_units

    def test_alert_wraps_finding(self):
        finding = Finding("high-cpu", "critical", "d1")
        alert = Alert("alert-1", finding, raised_at=9.0, channel="email")
        assert alert.finding is finding
        assert alert.channel == "email"
