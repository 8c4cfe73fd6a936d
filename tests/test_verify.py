"""The named verification suites at small scale, and report rendering."""

import pytest

from flatstir.verify import (
    CaseResult,
    VerificationReport,
    run_suite,
    verify_bijection,
    verify_conjectures,
    verify_runs,
    verify_table1,
    verify_table2,
)


def _strip_elapsed(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("elapsed_seconds"))


def test_each_suite_passes_at_small_scale():
    assert verify_bijection(4).passed
    assert verify_runs(4).passed
    assert verify_table1(5).passed
    assert verify_table2(3).passed
    assert verify_conjectures(6).passed


def test_run_suite_dispatch_and_all():
    reports = run_suite("all", max_n=3)
    assert [r.suite for r in reports] == ["bijection", "runs", "table1", "table2", "conjectures"]
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError):
        run_suite("nope")


def test_render_is_deterministic_apart_from_elapsed():
    a = verify_table1(3)
    b = verify_table1(3)
    assert _strip_elapsed(a.render()) == _strip_elapsed(b.render())
    assert "result: PASS" in a.render()


def test_render_failure_and_budget():
    report = VerificationReport("demo")
    report.cases.append(CaseResult("always wrong", "1", "2"))
    report.budget_hit = True
    text = report.render()
    assert "FAIL  always wrong: expected 1, got 2" in text
    assert "budget: exceeded" in text
    assert "result: FAIL" in text
    assert not report.passed


def test_report_without_cases_does_not_pass():
    report = VerificationReport("empty")
    assert not report.passed
    assert "result: FAIL" in report.render()
    assert not verify_runs(0).passed


def test_budget_constrained_suite_reports_budget_hit():
    report = verify_table1(5, budget=10)
    # exhaustive rows beyond the budget are recorded as budget failures
    assert report.budget_hit
    assert not report.passed
