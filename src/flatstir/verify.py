"""Named verification suites producing structured pass/fail reports.

Each suite re-derives a family of facts two ways and compares:

* ``bijection``   -- both round trips, injectivity, image = filtered set,
  and the frozen order-4 pair fixture;
* ``runs``        -- the partition-side run-count formula against actual
  run counts, and the maximal-run-count bound with its witness;
* ``table1``      -- the run-count table against the frozen reference,
  through the exhaustive filter and through the partition images;
* ``table2``      -- the m-fold flattened counts: exhaustive scan,
  recurrence, and the series (summed exactly as an r-Whitney sum; its
  case labels keep the name "certified series") against the frozen
  reference;
* ``conjectures`` -- the three-run formula against enumerated counts;
  the three-run formula, the two-run recurrence and the maximal run
  count against the run-distribution recurrence to order 100; and the
  m-fold recurrence/series/count identities.

Each suite takes an order bound and the enumeration budget, and runs in
this process: the exhaustive scans are the serial pruned walk.  Each
suite makes one pass per row source, up to the largest order the budget
admits: one ``image_run_distributions`` call, one ``_walk_stats`` per m.
Reports are deterministic apart from the clearly marked elapsed field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import bijection, reference, tables, typeb, words
from .errors import BudgetExceededError
from .formulas import (
    dowling,
    flat2_closed,
    flat2_recurrence,
    flat3_conjecture,
    flatm_recurrence,
    flatm_series,
    max_runs,
    mstirling_count,
    run_distributions,
)


@dataclass
class CaseResult:
    description: str
    expected: str
    actual: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@dataclass
class VerificationReport:
    suite: str
    cases: list[CaseResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    budget_hit: bool = False

    @property
    def passed(self) -> bool:
        """True when at least one case ran, every case passed and no budget was hit."""
        return bool(self.cases) and not self.budget_hit and all(c.passed for c in self.cases)

    def add(self, description: str, expected, actual) -> None:
        self.cases.append(CaseResult(description, str(expected), str(actual)))

    def render(self) -> str:
        lines = [f"suite: {self.suite}"]
        for case in self.cases:
            if case.passed:
                lines.append(f"PASS  {case.description} = {case.actual}")
            else:
                lines.append(
                    f"FAIL  {case.description}: expected {case.expected}, got {case.actual}"
                )
        if self.budget_hit:
            lines.append("budget: exceeded for at least one required case")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        lines.append(f"elapsed_seconds: {self.elapsed_seconds:.3f}")
        return "\n".join(lines) + "\n"


def _guard(report: VerificationReport, description: str, expected, thunk) -> None:
    try:
        actual = thunk()
    except BudgetExceededError as exc:
        report.budget_hit = True
        report.add(description, expected, f"budget exceeded ({exc})")
        return
    report.add(description, expected, actual)


def _image_rows(max_n: int, budget: int):
    """Order n -> its image run row: one count for every order within the budget,
    the refusal of ``count_runs_via_bijection`` above them.  The projection
    dowling(n - 1) rises with n, so the orders within the budget are 1..top."""
    top = next((n - 1 for n in range(1, max_n + 1) if dowling(n - 1) > budget), max_n)
    rows = bijection.image_run_distributions(top)
    return lambda n: rows[n] if n in rows else tables.count_runs_via_bijection(n, budget)


def _walk_rows(max_n: int, m: int, budget: int) -> list[words.StirlingStats]:
    """One walk's rows, for every order up to max_n whose |Q_n^m| fits the budget
    (|Q_n^m| rises with n, as ``_image_rows``' projection does)."""
    top = next((n - 1 for n in range(1, max_n + 1) if mstirling_count(n, m) > budget), max_n)
    return words._walk_stats(top, m)


def verify_bijection(max_n: int = 6, budget: int = words.DEFAULT_BUDGET) -> VerificationReport:
    report = VerificationReport("bijection")
    start = time.monotonic()
    fixture_bad = 0
    for ptext, wtext in reference.PAIRS_ORDER4:
        part = typeb.parse_partition(ptext)
        word = bijection.partition_to_word(part, verify_output=True)
        if words.format_word(word) != wtext or bijection.word_to_partition(word) != part:
            fixture_bad += 1
    report.add("order-4 pair fixture mismatches (24 pairs)", 0, fixture_bad)

    for order in range(1, max_n + 1):
        def round_trips(order=order):
            bad = 0
            images = set()
            for part in typeb.generate_typeb(order - 1, budget=budget):
                word = bijection.partition_to_word(part, verify_output=True)
                images.add(word.letters)
                if bijection.word_to_partition(word) != part:
                    bad += 1
            distinct = len(images) == dowling(order - 1)
            return f"failures=0 distinct={distinct}" if not bad else f"failures={bad}"

        _guard(report, f"order {order}: partition->word->partition over all partitions",
               "failures=0 distinct=True", round_trips)

        if mstirling_count(order, 2) <= budget:
            def reverse_trips(order=order):
                bad = 0
                image = set()
                for word in words.generate_flattened_filter(order, 2, budget=budget):
                    if bijection.partition_to_word(bijection.word_to_partition(word)) != word:
                        bad += 1
                    image.add(word.letters)
                same = image == set(bijection.iter_flattened_letters(order))
                return f"failures={bad} image_equal={same}"

            _guard(report, f"order {order}: word->partition->word over filtered flat words",
                   "failures=0 image_equal=True", reverse_trips)
    report.elapsed_seconds = time.monotonic() - start
    return report


def verify_runs(max_n: int = 6, budget: int = words.DEFAULT_BUDGET) -> VerificationReport:
    report = VerificationReport("runs")
    start = time.monotonic()
    image_row = _image_rows(max_n, budget)
    for order in range(1, max_n + 1):
        def formula_vs_actual(order=order):
            bad = 0
            for part in typeb.generate_typeb(order - 1, budget=budget):
                word = bijection.partition_to_word(part)
                if bijection.run_count_from_partition(part) != words.run_decomposition(
                    word
                ).run_count:
                    bad += 1
            return bad

        _guard(report, f"order {order}: run-count formula mismatches over all partitions",
               0, formula_vs_actual)

        def max_run_bound(order=order):
            by_runs = image_row(order)
            witness = bijection.max_runs_witness(order)
            attained = max(by_runs)
            witness_runs = words.run_decomposition(witness).run_count
            flat_ok = words.is_flattened(witness)
            return f"max={attained} witness={witness_runs} witness_flat={flat_ok}"

        bound = max_runs(order)
        _guard(report, f"order {order}: maximal run count and witness",
               f"max={bound} witness={bound} witness_flat=True", max_run_bound)
    report.elapsed_seconds = time.monotonic() - start
    return report


def _row_text(total: int, flat: int, by_runs: dict[int, int]) -> str:
    ks = ",".join(f"k{k}={by_runs[k]}" for k in sorted(by_runs))
    return f"total={total} flat={flat} {ks}"


def verify_table1(max_n: int = 7, budget: int = words.DEFAULT_BUDGET) -> VerificationReport:
    report = VerificationReport("table1")
    start = time.monotonic()
    max_n = min(max_n, 10)
    walk, image_row = _walk_rows(max_n, 2, budget), _image_rows(max_n, budget)
    for n in range(1, max_n + 1):
        expected = _row_text(*reference.TABLE1[n])
        if n < len(walk):
            stats = walk[n]
            filter_row = _row_text(stats.total, stats.flat_total, stats.flat_by_runs)
            report.add(f"n={n}: exhaustive filter row", expected, filter_row)

        def bijection_row(n=n):
            by = image_row(n)
            return _row_text(mstirling_count(n, 2), sum(by.values()), by)

        _guard(report, f"n={n}: partition-image row", expected, bijection_row)
    report.elapsed_seconds = time.monotonic() - start
    return report


def verify_table2(max_n: int = 5, budget: int = words.DEFAULT_BUDGET) -> VerificationReport:
    report = VerificationReport("table2")
    start = time.monotonic()
    grid = [(n, m) for n, m in reference.TABLE2 if n <= max_n]  # n-major, n <= 7, m = 2..5
    walks = {m: _walk_rows(grid[-1][0], m, budget) for m in {m for _, m in grid}}
    for n, m in grid:
        expected = reference.TABLE2[n, m]
        if n < len(walks[m]):
            report.add(f"n={n} m={m}: exhaustive flattened count", expected, walks[m][n].flat_total)
        report.add(f"n={n} m={m}: recurrence", expected, flatm_recurrence(n, m))
        report.add(f"n={n} m={m}: certified series", expected, flatm_series(n, m))
    report.elapsed_seconds = time.monotonic() - start
    return report


def verify_conjectures(max_n: int = 10, budget: int = words.DEFAULT_BUDGET) -> VerificationReport:
    report = VerificationReport("conjectures")
    start = time.monotonic()
    image_row = _image_rows(min(max_n, 10), budget)
    for n in range(1, min(max_n, 10) + 1):
        _guard(report, f"three-run formula vs enumerated count, n={n}", flat3_conjecture(n),
               lambda n=n: image_row(n).get(3, 0))
    report.add(
        "two-run closed form vs recurrence, n<=30",
        0,
        sum(1 for n in range(1, 31) if flat2_closed(n) != flat2_recurrence(n + 1)),
    )
    report.add(
        "two-run recurrence vs reference column",
        0,
        sum(
            1
            for n in range(1, 11)
            if flat2_recurrence(n) != reference.TABLE1[n][2].get(2, 0)
        ),
    )
    rows = run_distributions(100)  # every order to 100 in about 0.25 s
    for description, formula, read in [
        ("three-run formula vs run-distribution column 3", flat3_conjecture,
         lambda row: row.get(3, 0)),
        ("two-run recurrence vs run-distribution column 2", flat2_recurrence,
         lambda row: row.get(2, 0)),
        ("maximal run count vs largest run count of each run-distribution row", max_runs, max),
    ]:
        mismatches = sum(1 for n, row in rows.items() if formula(n) != read(row))
        report.add(f"{description}, n<=100", 0, mismatches)
    report.add(
        "m-fold recurrence vs certified series over the reference grid",
        0,
        sum(
            1
            for (n, m) in reference.TABLE2
            if flatm_recurrence(n, m) != flatm_series(n, m)
        ),
    )
    report.add(
        "m-fold recurrence at m=2 vs partition counts, n<=12",
        0,
        sum(1 for n in range(1, 13) if flatm_recurrence(n, 2) != dowling(n - 1)),
    )
    report.elapsed_seconds = time.monotonic() - start
    return report


# suite -> (default max_n, call taking (max_n, budget))
_SUITE_CALLS = {
    "bijection": (6, verify_bijection),
    "runs": (6, verify_runs),
    "table1": (7, verify_table1),
    "table2": (5, verify_table2),
    "conjectures": (10, verify_conjectures),
}
SUITES = (*_SUITE_CALLS, "all")


def run_suite(
    suite: str, max_n: int | None = None, budget: int = words.DEFAULT_BUDGET
) -> list[VerificationReport]:
    """Run one named suite (or every suite) at its default or requested scale."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    names = list(_SUITE_CALLS) if suite == "all" else [suite]
    return [
        call(default if max_n is None else max_n, budget)
        for default, call in (_SUITE_CALLS[name] for name in names)
    ]
