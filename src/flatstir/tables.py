"""Count tables: exhaustive/bijection table builders, CSV and JSON forms, cache.

A ``CountTable`` maps (kind, n, m, k) to an exact count plus the
provenance of that number:

* ``formula``     -- closed form or recurrence,
* ``enumeration`` -- exhaustive generation (filter or partition images),
* ``cached``      -- carried over from an earlier file without being
  re-derived in the producing run.

Kinds: ``stirling`` (|Q_n^m|), ``flat`` (flattened doubled words),
``flat_k`` (flattened doubled words with k runs), ``typeb`` (partition
counts), ``mstirling_flat`` (flattened m-fold words).

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
import os
from dataclasses import dataclass, field
from typing import Iterator

from .bijection import iter_flattened_letters
from .errors import DEFAULT_BUDGET, CacheCoherenceError, TableFormatError, check_budget
from .formulas import dowling, flatm_recurrence, max_runs, mstirling_count
from .words import count_stirling_stats, run_starts

KINDS = ("stirling", "flat", "flat_k", "typeb", "mstirling_flat")
PROVENANCES = ("formula", "enumeration", "cached")

Key = tuple[str, int, int | None, int | None]


@dataclass
class CountTable:
    """Keyed exact counts with provenance; re-puts must agree exactly."""

    entries: dict[Key, tuple[int, str]] = field(default_factory=dict)

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

    Enumerates partition images directly (never the full word set); the
    words are flattened by construction, so only their runs are counted.
    """
    check_budget(dowling(n - 1), budget, f"flattened words of order {n}")
    by_runs: dict[int, int] = {}
    for letters in iter_flattened_letters(n):
        runs = len(run_starts(letters))
        by_runs[runs] = by_runs.get(runs, 0) + 1
    return by_runs


def flat_k_table(
    n_max: int,
    mode: str = "bijection",
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> CountTable:
    """Fill |Q_n|, |flat|, and the flat_k distribution for 1 <= n <= n_max.

    ``filter`` walks the insertion tree pruned to flattened words (the
    default budget caps |Q_n| at n = 9; order 9 takes under a second);
    ``bijection`` enumerates the flattened words through the partition
    correspondence (feasible to about n = 11).  In bijection mode the
    |Q_n| column comes from the product formula.
    """
    table = CountTable()
    for n in range(1, n_max + 1):
        if mode == "filter":
            stats = count_stirling_stats(n, 2, budget=budget, workers=workers)
            table.put("stirling", n, 2, None, stats.total, "enumeration")
            table.put("flat", n, 2, None, stats.flat_total, "enumeration")
            for k, cnt in sorted(stats.flat_by_runs.items()):
                table.put("flat_k", n, 2, k, cnt, "enumeration")
        elif mode == "bijection":
            by_runs = count_runs_via_bijection(n, budget=budget)
            table.put("stirling", n, 2, None, mstirling_count(n, 2), "formula")
            table.put("flat", n, 2, None, sum(by_runs.values()), "enumeration")
            for k, cnt in sorted(by_runs.items()):
                table.put("flat_k", n, 2, k, cnt, "enumeration")
        else:
            raise ValueError(f"unknown mode {mode!r} (expected 'filter' or 'bijection')")
    return table


def mstirling_table(
    n_max: int,
    m_max: int = 5,
    mode: str = "formula",
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> CountTable:
    """Fill flattened m-fold counts for 1 <= n <= n_max, 2 <= m <= m_max.

    ``filter`` is the pruned insertion walk (also records the |Q_n^m| totals);
    ``formula`` evaluates the recurrence.
    """
    table = CountTable()
    for n in range(1, n_max + 1):
        for m in range(2, m_max + 1):
            if mode == "filter":
                stats = count_stirling_stats(n, m, budget=budget, workers=workers)
                table.put("stirling", n, m, None, stats.total, "enumeration")
                table.put("mstirling_flat", n, m, None, stats.flat_total, "enumeration")
            elif mode == "formula":
                table.put("mstirling_flat", n, m, None, flatm_recurrence(n, m), "formula")
            else:
                raise ValueError(f"unknown mode {mode!r} (expected 'filter' or 'formula')")
    return table


# ---------------------------------------------------------------- CSV forms


def table1_csv(table: CountTable, n_max: int, k_max: int | None = None) -> str:
    """Run-count table as CSV; cells beyond the maximal run count are 0."""
    if k_max is None:
        k_max = max_runs(n_max)
    header = "n,|Q_n|,|flat|," + ",".join(f"k={k}" for k in range(1, k_max + 1))
    lines = [header]
    for n in range(1, n_max + 1):
        cells = [
            str(n),
            str(table.get("stirling", n, 2) or 0),
            str(table.get("flat", n, 2) or 0),
        ]
        cells += [str(table.get("flat_k", n, 2, k) or 0) for k in range(1, k_max + 1)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _csv_lines(text: str) -> list[str]:
    """The nonblank lines of CSV text, header first; empty text is an error."""
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise TableFormatError("empty CSV")
    return lines


def _int_rows(lines: list[str], width: int) -> Iterator[list[int]]:
    """The data rows after the header as integers; each must have ``width`` cells."""
    for row_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise TableFormatError(f"row {row_no}: expected {width} cells")
        try:
            values = [int(c) for c in cells]
        except ValueError:
            raise TableFormatError(f"row {row_no}: non-integer cell") from None
        yield values


def parse_table1_csv(text: str) -> tuple[CountTable, int, int]:
    """Inverse of ``table1_csv``; returns (table, n_max, k_max)."""
    lines = _csv_lines(text)
    header = lines[0].split(",")
    if header[:3] != ["n", "|Q_n|", "|flat|"]:
        raise TableFormatError(f"unexpected header {lines[0]!r}")
    k_max = len(header) - 3
    if [h for h in header[3:]] != [f"k={k}" for k in range(1, k_max + 1)]:
        raise TableFormatError(f"unexpected run-count columns in header {lines[0]!r}")
    table = CountTable()
    n_max = 0
    for values in _int_rows(lines, len(header)):
        n = values[0]
        n_max = max(n_max, n)
        table.put("stirling", n, 2, None, values[1], "cached")
        table.put("flat", n, 2, None, values[2], "cached")
        for k, cnt in enumerate(values[3:], start=1):
            if cnt:
                table.put("flat_k", n, 2, k, cnt, "cached")
    return table, n_max, k_max


def table2_csv(table: CountTable, n_max: int, m_max: int = 5) -> str:
    """m-fold flattened-count table as CSV with header ``n,m=2,...``."""
    header = "n," + ",".join(f"m={m}" for m in range(2, m_max + 1))
    lines = [header]
    for n in range(1, n_max + 1):
        cells = [str(n)] + [
            str(table.get("mstirling_flat", n, m) or 0) for m in range(2, m_max + 1)
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_table2_csv(text: str) -> tuple[CountTable, int, int]:
    """Inverse of ``table2_csv``; returns (table, n_max, m_max)."""
    lines = _csv_lines(text)
    header = lines[0].split(",")
    if header[0] != "n" or header[1:] != [f"m={m}" for m in range(2, len(header) + 1)]:
        raise TableFormatError(f"unexpected header {lines[0]!r}")
    m_max = len(header)
    table = CountTable()
    n_max = 0
    for values in _int_rows(lines, len(header)):
        n = values[0]
        n_max = max(n_max, n)
        for m, cnt in enumerate(values[1:], start=2):
            table.put("mstirling_flat", n, m, None, cnt, "cached")
    return table, n_max, m_max


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
        if not isinstance(count_text, str) or not count_text.isdigit():
            raise TableFormatError(f"entry {i}: count must be a decimal string")
        if not isinstance(n, int) or not all(v is None or isinstance(v, int) for v in (m, k)):
            raise TableFormatError(f"entry {i}: n/m/k must be integers (m, k may be null)")
        key = (kind, n, m, k)
        if key in table.entries:
            raise TableFormatError(f"entry {i}: duplicate key {key}")
        try:
            table.put(kind, n, m, k, int(count_text), provenance)
        except ValueError as exc:
            raise TableFormatError(f"entry {i}: {exc}") from None
    return table


# ------------------------------------------------------------------- cache


def _derive_entry(key: Key, budget: int, row_cache: dict) -> int | None:
    """Recompute one entry from scratch; None when no derivation is wired up."""
    kind, n, m, k = key
    if kind == "typeb":
        return dowling(n)
    if kind == "stirling":
        return mstirling_count(n, m)
    if kind == "flat":
        return dowling(n - 1)
    if kind == "mstirling_flat":
        return flatm_recurrence(n, m)
    if kind == "flat_k":
        if n not in row_cache:
            row_cache[n] = count_runs_via_bijection(n, budget=budget)
        return row_cache[n].get(k, 0)
    return None


def build_cache(
    path: str, max_n: int = 10, max_m: int = 5, budget: int = DEFAULT_BUDGET
) -> CountTable:
    """Populate the count cache and write it to ``path``.

    If the file already exists its entries are kept: values that the
    fresh derivation also produces must agree (a contradiction fails
    loudly), and old entries outside the fresh range are carried over
    with provenance ``cached``.
    """
    fresh = CountTable()
    for n in range(0, max_n + 1):
        fresh.put("typeb", n, None, None, dowling(n), "formula")
    for n in range(1, max_n + 1):
        fresh.put("flat", n, 2, None, dowling(n - 1), "formula")
        for m in range(2, max_m + 1):
            fresh.put("stirling", n, m, None, mstirling_count(n, m), "formula")
            fresh.put("mstirling_flat", n, m, None, flatm_recurrence(n, m), "formula")
    for n in range(1, max_n + 1):
        if dowling(n - 1) > budget:
            break
        for k, cnt in sorted(count_runs_via_bijection(n, budget=budget).items()):
            fresh.put("flat_k", n, 2, k, cnt, "enumeration")

    if os.path.exists(path):
        old = load_cache(path)
        for key, (count, provenance) in old.entries.items():
            if key in fresh.entries:
                if fresh.entries[key][0] != count:
                    raise CacheCoherenceError(key, count, fresh.entries[key][0])
            else:
                fresh.entries[key] = (count, "cached")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table_to_json(fresh))
    return fresh


def load_cache(path: str, verify_formulas: bool = True) -> CountTable:
    """Read a cache file; formula-derivable entries are re-derived and must agree."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise TableFormatError(f"{path} is not UTF-8 text ({exc.reason})") from None
    table = table_from_json(text)
    if verify_formulas:
        for key, (count, _prov) in sorted(table.entries.items()):
            kind = key[0]
            if kind == "flat_k":
                continue  # enumeration-backed; verified by check_cache
            derived = _derive_entry(key, budget=0, row_cache={})
            if derived is not None and derived != count:
                raise CacheCoherenceError(key, count, derived)
    return table


def check_cache(path: str, sample_n: int = 8, budget: int = DEFAULT_BUDGET) -> int:
    """Recompute cached entries and compare; returns the number checked.

    Formula-backed entries are all recomputed; enumeration-backed
    (flat_k) entries are recomputed for n up to ``sample_n``.  The first
    contradiction raises CacheCoherenceError naming the entry.
    """
    table = load_cache(path, verify_formulas=False)
    row_cache: dict[int, dict[int, int]] = {}
    checked = 0
    for key in table.sorted_keys():
        kind, n, _m, _k = key
        if kind == "flat_k" and n > sample_n:
            continue
        derived = _derive_entry(key, budget=budget, row_cache=row_cache)
        if derived is None:
            continue
        count = table.entries[key][0]
        if derived != count:
            raise CacheCoherenceError(key, count, derived)
        checked += 1
    return checked


def clear_cache(path: str) -> bool:
    """Remove the cache file; missing file is a successful no-op."""
    if os.path.exists(path):
        os.remove(path)
        return True
    return False
