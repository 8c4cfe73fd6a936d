"""Count tables: the run-count and m-fold table builders, CSV and JSON forms.

A ``CountTable`` maps (kind, n, m, k) to an exact count plus the
provenance of that number:

* ``formula``     -- closed form or recurrence: every |Q_n^m| entry
  (kind ``stirling``) in every table mode, and every entry of a
  ``formula``-mode table,
* ``enumeration`` -- read off the flattened words: the pruned filter
  walk builds each one up to order n - 2 and tallies orders n - 1 and
  n from the generating-tree labels (a, b) of their parents and
  grandparents, and bijection mode counts the partition images block by
  block, from the letters of every sign variant,
* ``cached``      -- read back from a parsed CSV table.

Kinds: ``stirling`` (|Q_n^m|), ``flat`` (flattened doubled words),
``flat_k`` (flattened doubled words with k runs), ``mstirling_flat``
(flattened m-fold words).  The type B partitions of [-n, n] are counted
by ``flat`` at order n + 1.

``formula`` mode is the one formula path: ``flat_k_table`` takes every
row from one ``run_distributions`` call and ``mstirling_table`` each m
column from one ``flatm_counts`` pass.  The CLI builds formula tables up
to order ``FORMULA_MAX_ORDER`` and multiplicity ``FORMULA_MAX_MULTIPLICITY``.

The JSON document is versioned and stores counts as decimal strings so
arbitrary precision survives serialization:

    {"version": 1, "entries": [{"kind": ..., "n": ..., "m": ..., "k": ...,
                                "count": "...", "provenance": ...}]}

CSV output uses the header ``n,|Q_n|,|flat|,k=1,...`` (run-count table)
or ``n,m=2,...`` (m-fold table); parsing an emitted table and
re-emitting it is byte-identical.
"""

from __future__ import annotations

import json
from typing import Callable

from .bijection import image_run_distributions
from .bijection import iter_flattened_letters  # noqa: F401  bench/passes.py patches the name
from .errors import DEFAULT_BUDGET, CacheCoherenceError, Record, TableFormatError, check_budget
from .errors import DECIMAL_RE, check_digits, max_str_digits
from .formulas import dowling, flatm_counts, max_runs, run_distributions
from .words import _check_budget, _walk_stats
from .words import count_stirling_stats  # noqa: F401  bench/passes.py patches the name

KINDS = ("stirling", "flat", "flat_k", "mstirling_flat")
PROVENANCES = ("formula", "enumeration", "cached")

Key = tuple[str, int, int | None, int | None]

# Largest order and multiplicity of a formula-mode table.  At order 200
# `table --mode formula` takes about 0.65 s from start to exit on 2 CPUs,
# 0.55 s of it in run_distributions.
FORMULA_MAX_ORDER = 200
FORMULA_MAX_MULTIPLICITY = 20


class CountTable(Record):
    """Keyed exact counts with provenance; re-puts must agree exactly."""

    entries: dict[Key, tuple[int, str]]

    def __init__(self, entries: dict[Key, tuple[int, str]] | None = None):
        super().__init__({} if entries is None else entries)

    def put(
        self, kind: str, n: int, m: int | None, k: int | None, count: int, provenance: str
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        key = (kind, n, m, k)
        if key in self.entries and self.entries[key][0] != count:
            raise CacheCoherenceError(key, self.entries[key][0], count)
        self.entries[key] = (count, provenance)

    def get(self, kind: str, n: int, m: int | None = None, k: int | None = None) -> int | None:
        hit = self.entries.get((kind, n, m, k))
        return hit[0] if hit else None

    def sorted_keys(self) -> list[Key]:
        return sorted(self.entries, key=lambda t: (t[0], t[1], t[2] or 0, t[3] or 0))


def count_runs_via_bijection(n: int, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Run-count distribution over all flattened doubled words of order n.

    Counts the partition images (never the full word set), which are
    flattened by construction.  The budget caps their number, though
    ``image_run_distributions`` builds none of them.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _check_images(n, budget)
    return image_run_distributions(n)[n]


def _check_images(n: int, budget: int) -> None:
    check_budget(dowling(n - 1), budget, f"flattened words of order {n}")


def flat_k_table(n_max: int, mode: str = "bijection", budget: int = DEFAULT_BUDGET) -> CountTable:
    """Fill |Q_n|, |flat|, and the flat_k distribution for 1 <= n <= n_max.

    Only the run distribution comes from ``mode``, and each mode takes
    every row from one pass: ``filter`` from one walk of the insertion
    tree pruned to flattened words (``_walk_stats``; the default budget
    caps |Q_n| at n = 9, and orders 1-9 take about 12 ms on 2 CPUs, as
    the walk stops at order 7), ``bijection`` from one block-by-block
    count of the partition images
    (``image_run_distributions``, a convolution over block sizes; the
    default budget caps them at n = 11, and orders 1-11 take about 4 ms
    on 2 CPUs, 1-12 about 8 ms), and
    ``formula`` from one ``run_distributions(n_max)`` call (order 200 in
    about 0.55 s on 2 CPUs; its sums are unchanged, each binomial taken
    from the one before it).  The |Q_n| column is the product formula as
    a running product, each entry the one before times 2n - 1.  The two
    enumerations fill their ``flat`` and ``flat_k`` entries with
    provenance ``enumeration``, the formula with ``formula``.  An
    enumeration checks every order against the budget, ascending, before
    it counts the first.
    """
    if mode not in ("filter", "bijection", "formula"):
        raise ValueError(f"unknown mode {mode!r} (expected 'filter', 'bijection' or 'formula')")
    for n in range(1, n_max + 1):
        if mode == "bijection":
            _check_images(n, budget)
        elif mode == "filter":
            _check_budget(n, 2, budget)
    if mode == "formula":
        rows = run_distributions(n_max) if n_max >= 1 else {}
    elif mode == "bijection":
        rows = image_run_distributions(n_max)
    else:
        rows = [stats.flat_by_runs for stats in _walk_stats(n_max, 2)]
    provenance = "formula" if mode == "formula" else "enumeration"
    table = CountTable()
    stirling = 1
    for n in range(1, n_max + 1):
        by_runs = rows[n]
        stirling *= 2 * n - 1
        table.put("stirling", n, 2, None, stirling, "formula")
        table.put("flat", n, 2, None, sum(by_runs.values()), provenance)
        for k, cnt in sorted(by_runs.items()):
            table.put("flat_k", n, 2, k, cnt, provenance)
    return table


def mstirling_table(
    n_max: int, m_max: int = 5, mode: str = "formula", budget: int = DEFAULT_BUDGET
) -> CountTable:
    """Fill flattened m-fold counts for 1 <= n <= n_max, 2 <= m <= m_max.

    ``filter`` is the pruned insertion walk, one ``_walk_stats`` per m
    for all its orders, which checks every cell against the budget, in
    loop order, before it counts the first; ``formula`` evaluates the
    recurrence, one ``flatm_counts`` pass per m.  Both modes record
    |Q_n^m| by its product formula, one running product per m: each
    entry is the one before times (n - 1)m + 1.
    """
    if mode == "formula":
        columns = {m: flatm_counts(n_max, m) for m in range(2, m_max + 1)}
    elif mode != "filter":
        raise ValueError(f"unknown mode {mode!r} (expected 'filter' or 'formula')")
    else:
        for n in range(1, n_max + 1):
            for m in range(2, m_max + 1):
                _check_budget(n, m, budget)
        columns = {
            m: [stats.flat_total for stats in _walk_stats(n_max, m)] for m in range(2, m_max + 1)
        }
    provenance = "formula" if mode == "formula" else "enumeration"
    table = CountTable()
    stirling = dict.fromkeys(columns, 1)
    for n in range(1, n_max + 1):
        for m in columns:
            stirling[m] *= (n - 1) * m + 1
            table.put("stirling", n, m, None, stirling[m], "formula")
            table.put("mstirling_flat", n, m, None, columns[m][n], provenance)
    return table


# ---------------------------------------------------------------- CSV forms

# One CSV column after ``n``: its header cell and the (kind, m, k) of its counts.
Column = tuple[str, str, int | None, int | None]


def _table1_columns(k_max: int) -> list[Column]:
    return [("|Q_n|", "stirling", 2, None), ("|flat|", "flat", 2, None)] + [
        (f"k={k}", "flat_k", 2, k) for k in range(1, k_max + 1)
    ]


def _table2_columns(m_max: int) -> list[Column]:
    return [(f"m={m}", "mstirling_flat", m, None) for m in range(2, m_max + 1)]


def _to_csv(table: CountTable, n_max: int, columns: list[Column]) -> str:
    rows = [["n"] + [c[0] for c in columns]]
    for n in range(1, n_max + 1):
        rows.append([str(n)] + [str(table.get(kind, n, m, k) or 0) for _, kind, m, k in columns])
    return "".join(",".join(row) + "\n" for row in rows)


def table1_csv(table: CountTable, n_max: int, k_max: int | None = None) -> str:
    """Run-count table as CSV; cells beyond the maximal run count are 0."""
    if k_max is None:
        k_max = max_runs(n_max)
    return _to_csv(table, n_max, _table1_columns(k_max))


def table2_csv(table: CountTable, n_max: int, m_max: int = 5) -> str:
    """m-fold flattened-count table as CSV with header ``n,m=2,...``."""
    return _to_csv(table, n_max, _table2_columns(m_max))


def _from_csv(
    text: str, columns_for: Callable[[int], list[Column]], fixed: int, mismatch: str
) -> tuple[CountTable, int, int]:
    """Inverse of ``_to_csv``; returns (table, n_max, header width).

    The header must name ``columns_for(width)``: a mismatch in its first
    ``fixed`` cells is an unexpected header, one in the rest ``mismatch``.
    Every cell is an ASCII decimal (``DECIMAL_RE``) that ``int()`` can
    convert; a count cell has no sign, while the n cell may, so that a row
    numbered ``-1`` reports as found.  Data row i must have n = i, as
    ``_to_csv`` writes them, so n_max is the number of rows.  Run-count
    cells (columns with a k) are stored only when nonzero.
    """
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise TableFormatError("empty CSV")
    header = lines[0].split(",")
    columns = columns_for(len(header))
    expected = ["n"] + [c[0] for c in columns]
    if header[:fixed] != expected[:fixed]:
        raise TableFormatError(f"unexpected header {lines[0]!r}")
    if header != expected:
        raise TableFormatError(f"{mismatch} {lines[0]!r}")
    table = CountTable()
    for n, line in enumerate(lines[1:], start=1):
        row_no = n + 1
        cells = line.split(",")
        if len(cells) != len(header):
            raise TableFormatError(f"row {row_no}: expected {len(header)} cells")
        for col, cell in enumerate(cells, start=1):
            if not DECIMAL_RE.fullmatch(cell):
                raise TableFormatError(f"row {row_no}: non-integer cell")
            if col > 1 and cell[0] == "-":
                raise TableFormatError(f"row {row_no}: cell {col}: a count may not be signed")
            check_digits(cell, f"row {row_no}: cell {col}", TableFormatError)
        found, *counts = map(int, cells)
        if found != n:
            raise TableFormatError(f"row {row_no}: expected n = {n}, found {found}")
        for (_, kind, m, k), count in zip(columns, counts):
            if count or k is None:
                table.put(kind, n, m, k, count, "cached")
    return table, len(lines) - 1, len(header)


def parse_table1_csv(text: str) -> tuple[CountTable, int, int]:
    """Inverse of ``table1_csv``; returns (table, n_max, k_max)."""
    table, n_max, width = _from_csv(
        text, lambda width: _table1_columns(width - 3), 3, "unexpected run-count columns in header"
    )
    return table, n_max, width - 3


def parse_table2_csv(text: str) -> tuple[CountTable, int, int]:
    """Inverse of ``table2_csv``; returns (table, n_max, m_max)."""
    return _from_csv(text, _table2_columns, 1, "unexpected header")


# --------------------------------------------------------------- JSON form


def table_to_json(table: CountTable) -> str:
    entries = []
    for key in table.sorted_keys():
        kind, n, m, k = key
        count, provenance = table.entries[key]
        entries.append(
            {"kind": kind, "n": n, "m": m, "k": k, "count": str(count), "provenance": provenance}
        )
    return json.dumps({"version": 1, "entries": entries}, indent=2) + "\n"


def table_from_json(text: str) -> CountTable:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"invalid JSON: {exc}") from None
    except ValueError:
        # An integer too long to convert.  Python's own message advises
        # sys.set_int_max_str_digits(), which no CLI option offers.
        raise TableFormatError(
            f"invalid JSON: a number has more than {max_str_digits()} digits"
        ) from None
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise TableFormatError("expected a version-1 count table document")
    if not isinstance(doc.get("entries"), list):
        raise TableFormatError("missing entries list")
    table = CountTable()
    for i, entry in enumerate(doc["entries"]):
        try:
            kind = entry["kind"]
            n = entry["n"]
            m = entry["m"]
            k = entry["k"]
            count_text = entry["count"]
            provenance = entry["provenance"]
        except (TypeError, KeyError) as exc:
            raise TableFormatError(f"entry {i}: missing field {exc}") from None
        if not isinstance(count_text, str) or not (count_text.isascii() and count_text.isdigit()):
            raise TableFormatError(f"entry {i}: count must be a decimal string")
        check_digits(count_text, f"entry {i}: count", TableFormatError)
        # JSON true/false are not orders: bool is a subclass of int, so test the type
        if type(n) is not int or not all(v is None or type(v) is int for v in (m, k)):
            raise TableFormatError(f"entry {i}: n/m/k must be integers (m, k may be null)")
        key = (kind, n, m, k)
        if key in table.entries:
            raise TableFormatError(f"entry {i}: duplicate key {key}")
        try:
            table.put(kind, n, m, k, int(count_text), provenance)
        except ValueError as exc:
            raise TableFormatError(f"entry {i}: {exc}") from None
    return table
