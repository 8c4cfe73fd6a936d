"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Everything here is exact arithmetic; tolerances
are equality.
"""

import json
import random

import pytest

from flatstir import bijection as bj
from flatstir import oeis, tables, typeb, words
from flatstir.errors import (
    PartitionSyntaxError,
    BFileFormatError,
    NotCanonicalError,
    TableFormatError,
    WordSyntaxError,
)
from flatstir.formulas import (
    dowling,
    flat2_closed,
    flat2_recurrence,
    flat3_conjecture,
    flatm_recurrence,
    flatm_series,
    max_runs,
)
from flatstir.reference import PAIRS_ORDER4, TABLE1, TABLE2
from brute_force import scan_stirling_stats
from conftest import WORKERS


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_01_table1_brute_force(filter_stats):
    """Exhaustive filter reproduces every cell of the run-count table, n <= 8."""
    for n in range(1, 9):
        total, flat, by_runs = TABLE1[n]
        stats = filter_stats[n]
        assert stats.total == total, f"|Q_{n}|"
        assert stats.flat_total == flat, f"|flat(Q_{n})|"
        assert stats.flat_by_runs == by_runs, f"flat_k row n={n}"
    assert filter_stats[8].flat_total == 28640
    assert filter_stats[8].flat_by_runs[4] == 15260
    report(1, True, "table rows 1..8 exact via exhaustive filtering "
                    f"(largest scan: {filter_stats[8].total} words)")


def test_criterion_02_table1_bijection_path(bijection_runs):
    """Partition-image enumeration reproduces |flat| and flat_k columns, n <= 10."""
    for n in range(1, 11):
        _, flat, by_runs = TABLE1[n]
        got = bijection_runs[n]
        assert sum(got.values()) == flat, f"|flat(Q_{n})| via images"
        assert got == by_runs, f"flat_k row n={n} via images"
    assert bijection_runs[10][7] == 22400
    report(2, True, "flat and flat_k columns 1..10 exact via partition images "
                    "(including 22400 words with 7 runs at order 10)")


def test_criterion_03_round_trips(partitions, flat_words):
    """Inverse-of-forward on all partitions n <= 7; forward-of-inverse on all flat words <= 8."""
    failures = 0
    total_parts = 0
    for n in range(0, 8):
        for part in partitions[n]:
            total_parts += 1
            if bj.word_to_partition(bj.partition_to_word(part)) != part:
                failures += 1
    assert total_parts == sum(dowling(n) for n in range(8))
    assert len(partitions[7]) == 28640
    total_words = 0
    for n in range(1, 9):
        for word in flat_words[n]:
            total_words += 1
            if bj.partition_to_word(bj.word_to_partition(word)) != word:
                failures += 1
    report(3, failures == 0,
           f"{total_parts} partition round trips and {total_words} word round trips, "
           f"{failures} failures")


def test_criterion_04_order4_pair_fixture():
    """All 24 partition/word pairs reproduced exactly by both maps."""
    for ptext, wtext in PAIRS_ORDER4:
        part = typeb.parse_partition(ptext)
        word = words.StirlingWord(words.parse_word(wtext), 2)
        assert words.format_word(bj.partition_to_word(part, verify_output=True)) == wtext
        assert bj.word_to_partition(word) == part
    report(4, True, "24/24 order-4 pairs match in both directions")


def test_criterion_05_run_count_formula(partitions):
    """Partition-side run-count formula equals the actual run count, n <= 7."""
    checked = failures = 0
    for n in range(0, 8):
        for part in partitions[n]:
            checked += 1
            actual = words.run_decomposition(bj.partition_to_word(part)).run_count
            if bj.run_count_from_partition(part) != actual:
                failures += 1
    report(5, failures == 0, f"run-count formula exact on {checked} partitions, "
                             f"{failures} failures")


def test_criterion_06_max_runs(filter_stats):
    """Brute-force max run count equals ceil(2n/3) and the witness attains it, n <= 8."""
    for n in range(1, 9):
        bound = max_runs(n)
        assert max(filter_stats[n].flat_by_runs) == bound, f"n={n} brute-force max"
        witness = bj.max_runs_witness(n)
        assert words.is_flattened(witness)
        assert words.run_decomposition(witness).run_count == bound, f"n={n} witness"
    assert (max_runs(6), max_runs(7), max_runs(8)) == (4, 5, 6)
    report(6, True, "maximal run counts and witnesses exact for n = 1..8")


def test_criterion_07_two_run_formulas(filter_stats):
    """Two-run recurrence and closed form agree with each other and the table."""
    for n in range(1, 31):
        assert flat2_closed(n) == flat2_recurrence(n + 1), f"identity at {n}"
    expected = [5, 15, 37, 83, 177, 367, 749, 1515]
    got = [flat2_recurrence(n) for n in range(3, 11)]
    assert got == expected
    for n in range(2, 9):
        assert filter_stats[n].flat_by_runs.get(2, 0) == flat2_recurrence(n)
    report(7, True, f"two-run column n=3..10 = {got}, closed form consistent to n=30")


def test_criterion_08_partition_count_formula():
    """Triangle row-sum partition count equals exhaustive generation (n <= 9) and the sequence."""
    expected = [1, 2, 6, 24, 116, 648, 4088, 28640, 219920, 1832224]
    assert [dowling(n) for n in range(10)] == expected
    for n in range(0, 10):
        generated = sum(1 for _ in typeb.generate_typeb(n))
        assert generated == dowling(n), f"exhaustive count at n={n}"
    report(8, True, "partition counts exhaustive 0..9 equal the triangle row sums")


def test_criterion_09_three_run_conjecture(bijection_runs, filter_stats):
    """Three-run formula vs enumerated counts for n <= 10; agreement is reported."""
    expected_col = [8, 70, 374, 1596, 6012, 20994, 69842]
    assert [flat3_conjecture(n) for n in range(4, 11)] == expected_col
    disagreements = []
    for n in range(1, 11):
        enumerated = bijection_runs[n].get(3, 0)
        if n <= 8:
            assert filter_stats[n].flat_by_runs.get(3, 0) == enumerated
        if flat3_conjecture(n) != enumerated:
            disagreements.append((n, flat3_conjecture(n), enumerated))
        print(f"    three-run checker n={n}: formula {flat3_conjecture(n)} "
              f"vs enumerated {enumerated} -> "
              f"{'agree' if flat3_conjecture(n) == enumerated else 'DISAGREE'}")
    report(9, not disagreements,
           f"three-run formula agrees with enumeration for n=1..10 {disagreements or ''}")


def test_criterion_10_table2_exhaustive():
    """Exhaustive m-fold flattened counts match every reference cell, n <= 7, m <= 5.

    The brute-force scan fixes each cell; the pruned walk must equal it
    field by field.
    """
    from flatstir.formulas import mstirling_count

    checked = 0
    for n in range(1, 8):
        for m in range(2, 6):
            stats = scan_stirling_stats(n, m, workers=WORKERS if n >= 6 else 1)
            assert stats.total == mstirling_count(n, m), f"|Q| at n={n} m={m}"
            assert stats.flat_total == TABLE2[(n, m)], f"cell n={n} m={m}"
            pruned = words.count_stirling_stats(n, m)
            assert (pruned.total, pruned.flat_total, pruned.flat_by_runs) == (
                stats.total, stats.flat_total, stats.flat_by_runs
            ), f"pruned walk vs brute force at n={n} m={m}"
            checked += 1
    report(10, True, f"{checked} exhaustive cells exact "
                     "(largest: 17873856 words at n=7, m=5)")


def test_criterion_11_mfold_conjecture():
    """Recurrence matches the table; series matches recurrence; m=2 reduces to partitions."""
    for (n, m), expected in TABLE2.items():
        assert flatm_recurrence(n, m) == expected, f"recurrence cell {(n, m)}"
        assert flatm_series(n, m) == expected, f"series cell {(n, m)}"
    for n in range(1, 13):
        assert flatm_recurrence(n, 2) == dowling(n - 1), f"m=2 reduction at n={n}"
    report(11, True, "recurrence, certified series and m=2 reduction all exact")


def test_criterion_12_oeis_prefixes():
    """Computed prefixes match the bundled b-file fixtures."""
    minimums = {"dowling": 15, "flat2": 15, "mstirling3": 7, "mstirling4": 7}
    details = []
    for generator, minimum in minimums.items():
        spec = oeis.GENERATORS[generator]
        seq = oeis.parse_bfile(oeis.bundled_bfile_text(spec.sequence_id), spec.sequence_id)
        result = oeis.compare_sequence(seq, generator)
        assert result.passed, f"{spec.sequence_id}: {result.first_mismatch}"
        assert result.checked >= minimum, f"{spec.sequence_id}: only {result.checked} terms"
        details.append(f"{spec.sequence_id}:{result.checked}")
    report(12, True, "b-file prefixes match (" + ", ".join(details) + ")")


# --------------------------------------------------------- criterion 13


def _random_word(rng: random.Random) -> words.StirlingWord:
    m = rng.randint(1, 4)
    n = rng.randint(0, 12)
    letters: tuple[int, ...] = ()
    for v in range(1, n + 1):
        gap = rng.randint(0, len(letters))
        letters = letters[:gap] + (v,) * m + letters[gap:]
    return words.StirlingWord(letters, m)


def _random_partition(rng: random.Random) -> typeb.TypeBPartition:
    n = rng.randint(0, 12)
    values = list(range(1, n + 1))
    support = sorted(v for v in values if rng.random() < 0.3)
    rest = [v for v in values if v not in support]
    members: dict[int, list[int]] = {}
    mx = -1
    for v in rest:
        label = rng.randint(0, mx + 1)
        members.setdefault(label, []).append(v)
        mx = max(mx, label)
    blocks = []
    for label in sorted(members, key=lambda lb: members[lb][0]):
        block = members[label]
        negs = sorted(v for v in block[1:] if rng.random() < 0.5)
        blocks.append(typeb.SignedBlock(tuple(negs),
                                        tuple(v for v in block if v not in negs)))
    blocks.sort(key=lambda b: b.positives[0])
    return typeb.TypeBPartition(n, (0, *support), tuple(blocks))


def _random_table(rng: random.Random) -> tuple[tables.CountTable, int, int]:
    n_max = rng.randint(1, 12)
    k_max = rng.randint(1, 8)
    table = tables.CountTable()
    for n in range(1, n_max + 1):
        table.put("stirling", n, 2, None, rng.randrange(10**9), "formula")
        table.put("flat", n, 2, None, rng.randrange(10**9), "enumeration")
        for k in range(1, k_max + 1):
            if rng.random() < 0.7:
                table.put("flat_k", n, 2, k, rng.randrange(10**12), "enumeration")
    return table, n_max, k_max


def test_criterion_13_round_trips_and_fuzz(flat_words):
    """Exhaustive small + >= 10^4 fuzzed round trips; malformed inputs rejected."""
    # exhaustive small cases
    for m in (2, 3):
        for word in words.generate_stirling(4 - (m == 3), m):
            if word.letters:
                assert words.parse_word(words.format_word(word)) == word.letters
    for n in range(0, 5):
        for part in typeb.generate_typeb(n):
            assert typeb.parse_partition(typeb.format_partition(part)) == part
    for word in flat_words[5]:
        assert bj.partition_to_word(bj.word_to_partition(word)) == word

    rng = random.Random(20230814)
    fuzzed = 0
    for _ in range(3000):  # word text
        word = _random_word(rng)
        if word.letters:
            assert words.parse_word(words.format_word(word)) == word.letters
        fuzzed += 1
    for _ in range(3000):  # partition text
        part = _random_partition(rng)
        ok, diags = typeb.validate_canonical(part)
        assert ok, diags
        assert typeb.parse_partition(typeb.format_partition(part)) == part
        fuzzed += 1
    for _ in range(2500):  # CSV
        table, n_max, k_max = _random_table(rng)
        text = tables.table1_csv(table, n_max, k_max)
        parsed, got_n, got_k = tables.parse_table1_csv(text)
        assert tables.table1_csv(parsed, got_n, got_k) == text
        fuzzed += 1
    for _ in range(2500):  # count-table JSON
        table, _, _ = _random_table(rng)
        text = tables.table_to_json(table)
        parsed = tables.table_from_json(text)
        assert parsed.entries == table.entries and tables.table_to_json(parsed) == text
        fuzzed += 1
    assert fuzzed >= 10_000

    # documented malformed classes, each with its diagnostic
    for bad in ["", "0", "1 0 2", "1 -2 1", "10203", "1 x", "007"]:
        with pytest.raises(WordSyntaxError):
            words.parse_word(bad)
    for bad in ["", "0 | | 1", "0 | 1a", "0 | -0", "0 | 007", "| 0"]:
        with pytest.raises(PartitionSyntaxError):
            typeb.parse_partition(bad)
    for bad, code in [
        ("0 | 2 -1", "intra-block-order"),
        ("1 | 0 2", "zero-block-missing-zero"),
        ("0 -1 | 1", "zero-block-negative"),
        ("0 | -1 2", "negative-min-rule"),
        ("0 | 2 | 1", "block-order"),
        ("0 1 | 1 2", "duplicate-value"),
        ("0 | 2", "coverage-gap"),
    ]:
        with pytest.raises(NotCanonicalError) as err:
            typeb.parse_partition(bad)
        assert code in {d.code for d in err.value.diagnostics}, bad
    for bad, line in [("0 1 2\n", 1), ("0 x\n", 1), ("1 1\n0 2\n", 2), ("", None)]:
        with pytest.raises(BFileFormatError) as err:
            oeis.parse_bfile(bad)
        assert err.value.line_number == line
    for bad in ["", "n,|flat|\n", "n,|Q_n|,|flat|,k=1\n1,1,x,1\n"]:
        with pytest.raises(TableFormatError):
            tables.parse_table1_csv(bad)
    # data row i must have n = i: no gap, no n <= 0, no repeat, no reordering
    for parse, header, row1 in [
        (tables.parse_table1_csv, "n,|Q_n|,|flat|,k=1,k=2", "1,1,1,1,0"),
        (tables.parse_table2_csv, "n,m=2", "1,1"),
    ]:
        width = row1.count(",")
        for rows, row_no, found in [
            ([row1, "3" + ",6" * width], 3, 3),
            ([row1, "0" + ",5" * width], 3, 0),
            (["-1" + ",5" * width], 2, -1),
            ([row1, row1], 3, 1),
            ([row1, "1" + ",2" * width], 3, 1),
            (["2" + ",6" * width, row1], 2, 2),
        ]:
            with pytest.raises(TableFormatError) as err:
                parse("\n".join([header, *rows]) + "\n")
            assert str(err.value) == f"row {row_no}: expected n = {row_no - 1}, found {found}"
    good = tables.table_to_json(tables.flat_k_table(2, mode="filter"))
    doc = json.loads(good)
    doc["version"] = 3
    with pytest.raises(TableFormatError):
        tables.table_from_json(json.dumps(doc))

    report(13, True, f"exhaustive small + {fuzzed} fuzzed round trips, "
                     "all malformed classes rejected with correct diagnostics")
