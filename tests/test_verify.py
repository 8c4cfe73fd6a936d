"""The named verification suites at small scale, and report rendering."""

from collections import Counter

import pytest

from flatstir import bijection, reference, tables, verify, words
from flatstir.cli import main
from flatstir.typeb import TypeBPartition
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


def test_verify_all_makes_one_pass_per_row_source(monkeypatch):
    """Each suite takes its image rows from one count and its walk rows from
    one walk per m: 3 image counts (runs, table1, conjectures) and 5 walks
    (table1 at m = 2, table2 at m = 2..5).  Counting one order per call made
    23 and 27."""
    calls: Counter = Counter()

    def wrap(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (bijection, tables):
        wrap(module, "image_run_distributions")
    wrap(words, "_walk_stats")
    assert all(report.passed for report in run_suite("all"))
    assert calls == {"image_run_distributions": 3, "_walk_stats": 5}


def _fails(report: VerificationReport) -> list[str]:
    return [ln for ln in report.render().splitlines() if ln.startswith("FAIL")]


def test_package_error_inside_a_case_is_a_fail(capsys, monkeypatch):
    """A map that raises instead of answering fails its cases; the command
    prints every report and exits 1, not 4 with nothing printed."""
    real = bijection.word_to_partition

    def broken(word):
        if word.order == 3:
            return TypeBPartition(2, (1, 2), ())  # zero-block lacks 0: NotCanonicalError
        return real(word)

    monkeypatch.setattr(bijection, "word_to_partition", broken)
    assert main(["verify", "bijection", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    error = ("NotCanonicalError: partition is not in canonical form: zero-block must start "
             "with 0; magnitudes must cover 0..2 exactly; got [1, 2]")
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL")] == [
        "FAIL  order 3: partition->word->partition over all partitions: "
        f"expected failures=0 distinct=True, got {error}",
        "FAIL  order 3: word->partition->word over filtered flat words: "
        f"expected failures=0 image_equal=True, got {error}",
    ]
    assert out.count("PASS  ") == 7 and "result: FAIL" in out


def test_bijection_suite_counts_a_wrong_inverse(monkeypatch):
    """An inverse that answers one canonical partition for every word of an
    order fails the fixture and both round trips of every order above 1."""
    def collapse(word):
        n = word.order - 1
        return TypeBPartition(n, tuple(range(n + 1)), ())

    monkeypatch.setattr(bijection, "word_to_partition", collapse)
    assert _fails(verify_bijection(4)) == [
        "FAIL  order-4 pair fixture mismatches (24 pairs): expected 0, got 23",
        *(line
          for order, bad in [(2, 1), (3, 5), (4, 23)]
          for line in (
              f"FAIL  order {order}: partition->word->partition over all partitions: "
              f"expected failures=0 distinct=True, got failures={bad}",
              f"FAIL  order {order}: word->partition->word over filtered flat words: "
              f"expected failures=0 image_equal=True, got failures={bad} image_equal=True",
          )),
    ]


def test_bijection_suite_fails_a_non_flattened_image(monkeypatch):
    """An encoder that sends every image whose zero-block is {0, 1} to 2211 trips
    ``partition_to_word``'s flattened check in the fixture (order 4) and the
    round trip of order 2, and fails the reverse round trip of order 2."""
    real = bijection._word_letters
    monkeypatch.setattr(bijection, "_word_letters",
                        lambda zero_block, blocks: (2, 2, 1, 1) if zero_block == (0, 1)
                        else real(zero_block, blocks))
    assert _fails(verify_bijection(2)) == [
        "FAIL  order-4 pair fixture mismatches (24 pairs): expected 0, got NotFlattenedError: "
        "forward map produced a non-flattened word: 2 2 1 1",
        "FAIL  order 2: partition->word->partition over all partitions: expected "
        "failures=0 distinct=True, got NotFlattenedError: forward map produced a "
        "non-flattened word: 2 2 1 1",
        "FAIL  order 2: word->partition->word over filtered flat words: "
        "expected failures=0 image_equal=True, got failures=1 image_equal=True",
    ]


def test_runs_suite_counts_formula_mismatches(monkeypatch):
    """The run-count formula plus one on two-block partitions: 1, 9 and 58
    mismatches at orders 3 to 5."""
    real = bijection.run_count_from_partition
    monkeypatch.setattr(bijection, "run_count_from_partition",
                        lambda part: real(part) + (len(part.blocks) == 2))
    assert _fails(verify_runs(5)) == [
        f"FAIL  order {order}: run-count formula mismatches over all partitions: "
        f"expected 0, got {bad}"
        for order, bad in [(3, 1), (4, 9), (5, 58)]
    ]


@pytest.mark.parametrize("source", ["walk", "images"])
def test_table1_suite_fails_a_row_off_by_one(monkeypatch, source):
    if source == "walk":
        real = words._walk_stats

        def rows(n, m):
            stats = real(n, m)
            stats[3].flat_total += 1
            return stats

        monkeypatch.setattr(words, "_walk_stats", rows)
        wrong = "n=3: exhaustive filter row: expected total=15 flat=6 k1=1,k2=5, got total=15 flat=7"
    else:
        real = bijection.image_run_distributions

        def rows(n_max):
            by_order = real(n_max)
            by_order[3] = {**by_order[3], 2: by_order[3][2] + 1}
            return by_order

        monkeypatch.setattr(bijection, "image_run_distributions", rows)
        wrong = "n=3: partition-image row: expected total=15 flat=6 k1=1,k2=5, got total=15 flat=7"
    assert _fails(verify_table1(4)) == [f"FAIL  {wrong} k1=1,k2={5 + (source == 'images')}"]


def test_table2_and_conjectures_fail_a_series_off_by_one(monkeypatch):
    real = verify.flatm_series
    monkeypatch.setattr(verify, "flatm_series", lambda n, m: real(n, m) + ((n, m) == (3, 4)))
    assert _fails(verify_table2(3)) == [
        f"FAIL  n=3 m=4: certified series: expected {reference.TABLE2[3, 4]}, "
        f"got {reference.TABLE2[3, 4] + 1}"
    ]
    assert _fails(verify_conjectures(3)) == [
        "FAIL  m-fold recurrence vs certified series over the reference grid: expected 0, got 1"
    ]
