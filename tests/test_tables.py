"""Count tables: builder modes, the formula tables, CSV/JSON round trips."""

import json
import sys

import pytest

from flatstir import tables, verify
from flatstir.errors import CacheCoherenceError, TableFormatError
from flatstir.formulas import (
    dowling,
    flatm_recurrence,
    max_runs,
    mstirling_count,
    run_distribution,
    run_distributions,
)
from flatstir.reference import TABLE1, TABLE2
from flatstir.tables import (
    CountTable,
    count_runs_via_bijection,
    flat_k_table,
    mstirling_table,
    parse_table1_csv,
    parse_table2_csv,
    table1_csv,
    table2_csv,
    table_from_json,
    table_to_json,
)


class TestBuilders:
    def test_modes_agree_and_match_reference(self):
        filt = flat_k_table(6, mode="filter")
        bij = flat_k_table(6, mode="bijection")
        for n in range(1, 7):
            total, flat, by_runs = TABLE1[n]
            for table in (filt, bij):
                assert table.get("stirling", n, 2) == total
                assert table.get("flat", n, 2) == flat
                for k, cnt in by_runs.items():
                    assert table.get("flat_k", n, 2, k) == cnt

    def test_modes_differ_only_in_the_run_distribution(self):
        """Every mode fills the same entries; |Q_n| is the formula in each.

        The enumerations agree entry for entry, provenance included.  The
        formula table has the filter walk's counts for n <= 9 and the
        partition images' counts for n <= 10, each with provenance formula.
        """
        filt = flat_k_table(9, mode="filter")
        bij = flat_k_table(10, mode="bijection")
        form = flat_k_table(10, mode="formula")

        def upto(table, n_max, provenance=False):
            return {key: entry if provenance else entry[0]
                    for key, entry in table.entries.items() if key[1] <= n_max}

        assert filt.entries == upto(bij, 9, provenance=True)
        assert filt.entries[("stirling", 7, 2, None)] == (135_135, "formula")
        assert upto(form, 9) == upto(filt, 9)
        assert upto(form, 10) == upto(bij, 10)
        assert {provenance for _, provenance in form.entries.values()} == {"formula"}

    def test_flat_k_row_sums(self):
        table = flat_k_table(7, mode="bijection")
        for n in range(1, 8):
            ks = [v for (kind, nn, _, k), (v, _) in table.entries.items()
                  if kind == "flat_k" and nn == n]
            assert sum(ks) == table.get("flat", n, 2)

    def test_mstirling_modes_agree(self):
        filt = mstirling_table(4, 5, mode="filter")
        form = mstirling_table(4, 5, mode="formula")
        for n in range(1, 5):
            for m in range(2, 6):
                assert (
                    filt.get("mstirling_flat", n, m)
                    == form.get("mstirling_flat", n, m)
                    == TABLE2[(n, m)]
                )
                for table in (filt, form):
                    assert table.entries[("stirling", n, m, None)] == (
                        mstirling_count(n, m), "formula"
                    )

    def test_every_stirling_entry_is_the_product_formula(self):
        """The builders' running products equal ``mstirling_count`` on each table's grid."""
        top, m_top = tables.FORMULA_MAX_ORDER, tables.FORMULA_MAX_MULTIPLICITY
        grids = [
            (mstirling_table(top, m_top, mode="formula"), top, range(2, m_top + 1)),
            (flat_k_table(60, mode="formula"), 60, [2]),
            (flat_k_table(9, mode="bijection"), 9, [2]),
        ]
        for table, n_max, ms in grids:
            stirling = {(n, m): count for (kind, n, m, _), (count, _) in table.entries.items()
                        if kind == "stirling"}
            assert stirling == {
                (n, m): mstirling_count(n, m) for n in range(1, n_max + 1) for m in ms
            }

    def test_formula_columns_equal_the_recurrence_per_cell(self):
        table = mstirling_table(30, 6, mode="formula")
        for n in range(1, 31):
            for m in range(2, 7):
                assert table.get("mstirling_flat", n, m) == flatm_recurrence(n, m), (n, m)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            flat_k_table(3, mode="magic")
        with pytest.raises(ValueError):
            mstirling_table(3, mode="magic")

    def test_count_runs_via_bijection_matches_reference(self):
        assert count_runs_via_bijection(9) == TABLE1[9][2]

    def test_put_contradiction_fails(self):
        table = CountTable()
        table.put("flat", 3, 2, None, 6, "formula")
        table.put("flat", 3, 2, None, 6, "enumeration")  # same value is fine
        with pytest.raises(CacheCoherenceError):
            table.put("flat", 3, 2, None, 7, "formula")


class TestCsv:
    def test_table1_smallest(self):
        text = table1_csv(flat_k_table(1, mode="filter"), 1)
        assert text == "n,|Q_n|,|flat|,k=1\n1,1,1,1\n"

    def test_table1_round_trip_byte_identical(self):
        for n_max, k_max in [(1, None), (5, None), (7, 7), (6, 3)]:
            text = table1_csv(flat_k_table(n_max, mode="bijection"), n_max, k_max)
            parsed, got_n, got_k = parse_table1_csv(text)
            assert table1_csv(parsed, got_n, got_k) == text

    def test_table2_round_trip_byte_identical(self):
        text = table2_csv(mstirling_table(6, 5, mode="formula"), 6, 5)
        parsed, got_n, got_m = parse_table2_csv(text)
        assert table2_csv(parsed, got_n, got_m) == text

    def test_zero_padding_beyond_max_runs(self):
        text = table1_csv(flat_k_table(3, mode="filter"), 3, 6)
        rows = text.strip().split("\n")
        assert rows[1] == "1,1,1,1,0,0,0,0,0"
        assert rows[3] == "3,15,6,1,5,0,0,0,0"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "x,y\n1,2",
            "n,|Q_n|,|flat|,k=1\n1,1,1\n",
            "n,|Q_n|,|flat|,k=1\n1,1,one,1\n",
            "n,|Q_n|,|flat|,k=2\n1,1,1,1\n",
        ],
    )
    def test_table1_malformed(self, bad):
        with pytest.raises(TableFormatError):
            parse_table1_csv(bad)

    @pytest.mark.parametrize("bad", ["", "n,m=3\n1,1\n", "n,m=2\n1\n", "n,m=2\n1,x\n"])
    def test_table2_malformed(self, bad):
        with pytest.raises(TableFormatError):
            parse_table2_csv(bad)

    @pytest.mark.parametrize("cell", ["+3", " 3", "٣", "3_0"],
                             ids=["plus sign", "leading space", "arabic-indic three",
                                  "underscore"])
    def test_cell_that_is_not_an_ascii_decimal_is_refused(self, cell):
        """int() reads these as 3 or 30; cells are ASCII decimals, as in a b-file."""
        for parse, text in [
            (parse_table1_csv, f"n,|Q_n|,|flat|,k=1\n1,1,{cell},1\n"),
            (parse_table2_csv, f"n,m=2\n1,{cell}\n"),
            (parse_table2_csv, f"n,m=2\n{cell},1\n"),
        ]:
            with pytest.raises(TableFormatError) as err:
                parse(text)
            assert str(err.value) == "row 2: non-integer cell", text

    @pytest.mark.parametrize("cell", ["-1", "-0"])
    def test_table1_signed_count_is_refused(self, cell):
        with pytest.raises(TableFormatError) as err:
            parse_table1_csv(f"n,|Q_n|,|flat|,k=1\n1,1,{cell},1\n")
        assert str(err.value) == "row 2: cell 3: a count may not be signed"

    @pytest.mark.parametrize("cell", ["-1", "-0"])
    def test_table2_signed_count_is_refused(self, cell):
        """As the JSON codec does; the n cell keeps its sign so a wrong row number reports."""
        with pytest.raises(TableFormatError) as err:
            parse_table2_csv(f"n,m=2\n1,{cell}\n")
        assert str(err.value) == "row 2: cell 2: a count may not be signed"
        with pytest.raises(TableFormatError) as err:
            parse_table2_csv("n,m=2\n-1,1\n")
        assert str(err.value) == "row 2: expected n = 1, found -1"

    def test_over_long_cell_names_the_digit_limit(self):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python converts integers of any length")
        too_long = "7" * 5000
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for parse, text, col in [
                (parse_table1_csv, f"n,|Q_n|,|flat|,k=1\n1,1,{too_long},1\n", 3),
                (parse_table2_csv, f"n,m=2\n{too_long},1\n", 1),
            ]:
                with pytest.raises(TableFormatError) as err:
                    parse(text)
                assert str(err.value) == f"row 2: cell {col} has 5000 digits, more than 4300"
        finally:
            sys.set_int_max_str_digits(old_limit)


# json.dumps cannot write an int too long for str(); the test text puts one
# (1 followed by 5,000 zeros) where this placeholder stands
TOO_LONG = "<an order of 5001 digits>"


class TestJson:
    def test_round_trip(self):
        table = flat_k_table(5, mode="bijection")
        text = table_to_json(table)
        again = table_from_json(text)
        assert again.entries == table.entries
        assert table_to_json(again) == text

    def test_schema_shape(self):
        doc = json.loads(table_to_json(flat_k_table(2, mode="filter")))
        assert doc["version"] == 1
        entry = doc["entries"][0]
        assert set(entry) == {"kind", "n", "m", "k", "count", "provenance"}
        assert isinstance(entry["count"], str)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(version=2),
            lambda d: d.update(entries="nope"),
            lambda d: d["entries"].append(d["entries"][0]),
            lambda d: d["entries"][0].update(count=12),
            lambda d: d["entries"][0].update(count="-4"),
            lambda d: d["entries"][0].update(kind="weird"),
            lambda d: d["entries"][0].update(provenance="guessed"),
            lambda d: d["entries"][0].pop("kind"),
            lambda d: d["entries"][0].update(n=True),
            lambda d: d["entries"][0].update(m=False),
            lambda d: d["entries"][0].update(n=TOO_LONG),
        ],
    )
    def test_malformed_documents(self, mutate):
        doc = json.loads(table_to_json(flat_k_table(2, mode="filter")))
        mutate(doc)
        text = json.dumps(doc).replace(json.dumps(TOO_LONG), "1" + "0" * 5000)
        with pytest.raises(TableFormatError):
            table_from_json(text)

    @pytest.mark.parametrize("count", ["\u00b2", "\u0661", "1\u0661"],
                             ids=["superscript two", "arabic-indic one", "mixed"])
    def test_count_of_non_ascii_digits_is_a_format_error(self, count):
        """str.isdigit() accepts these; int() refuses the first and reads the others as 1, 11."""
        doc = json.loads(table_to_json(flat_k_table(2, mode="filter")))
        doc["entries"][0].update(count=count)
        with pytest.raises(TableFormatError) as err:
            table_from_json(json.dumps(doc))
        assert str(err.value) == "entry 0: count must be a decimal string"

    @pytest.mark.parametrize(
        "text, message",
        [
            # a bare number: the JSON decoder refuses it
            ('{"version": 1, "entries": [{"kind": "flat", "n": 1' + "0" * 5000
             + ', "m": 2, "k": null, "count": "1", "provenance": "formula"}]}',
             "invalid JSON: a number has more than 4300 digits"),
            # a count string: int() refuses it
            ('{"version": 1, "entries": [{"kind": "flat", "n": 1, "m": 2, "k": null, "count": "1'
             + "0" * 5000 + '", "provenance": "formula"}]}',
             "entry 0: count has 5001 digits, more than 4300"),
        ],
        ids=["bare number", "count string"],
    )
    def test_integer_too_long_to_convert_is_a_format_error(self, text, message):
        """Python's own message, which advises sys.set_int_max_str_digits(), never shows."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python converts integers of any length")
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(TableFormatError) as err:
                table_from_json(text)
        finally:
            sys.set_int_max_str_digits(old_limit)
        assert str(err.value) == message

    def test_invalid_json_text(self):
        with pytest.raises(TableFormatError):
            table_from_json("{not json")


def old_cache_entries(max_n, max_m):
    """The keys of the retired ``cache build`` with each count by its formula.

    ``typeb`` counted the type B partitions of [-n, n], which ``flat``
    counts at order n + 1.
    """
    entries = {("typeb", n, None, None): dowling(n) for n in range(max_n + 1)}
    for n in range(1, max_n + 1):
        entries[("flat", n, 2, None)] = dowling(n - 1)
        for m in range(2, max_m + 1):
            entries[("stirling", n, m, None)] = mstirling_count(n, m)
            entries[("mstirling_flat", n, m, None)] = flatm_recurrence(n, m)
        for k in range(1, max_runs(n) + 1):
            entries[("flat_k", n, 2, k)] = run_distribution(n)[k]
    return entries


def checked_against(text, fresh):
    """Read a JSON count table and put every entry of ``fresh`` into it.

    A disagreeing entry raises ``CacheCoherenceError`` naming its key.
    """
    table = table_from_json(text)
    for (kind, n, m, k), (count, provenance) in fresh.entries.items():
        table.put(kind, n, m, k, count, provenance)
    return table


def tampered(table, key, count):
    doc = json.loads(table_to_json(table))
    for entry in doc["entries"]:
        if (entry["kind"], entry["n"], entry["m"], entry["k"]) == key:
            entry["count"] = str(count)
    return json.dumps(doc)


class TestCache:
    """The counts of the retired ``cache`` command, now the formula tables."""

    def test_build_then_check(self):
        runs = flat_k_table(5, mode="formula")
        folds = mstirling_table(5, 3, mode="formula")
        assert runs.get("flat", 5, 2) == 116  # the old typeb entry at order 4
        assert runs.get("flat_k", 5, 2, 3) == 70
        for table in (runs, folds):
            assert checked_against(table_to_json(table), table).entries == table.entries

    def test_tampered_value_is_named(self):
        table = flat_k_table(4, mode="formula")
        text = tampered(table, ("flat_k", 4, 2, 3), 9999)
        with pytest.raises(CacheCoherenceError, match=r"flat_k.*4"):
            checked_against(text, table)

    def test_tampered_flat_k_of_the_largest_order_is_named(self):
        """Every flat_k row is compared, not only the small orders."""
        table = flat_k_table(9, mode="formula")
        text = tampered(table, ("flat_k", 9, 2, 3), table.get("flat_k", 9, 2, 3) + 1)
        named = r"\('flat_k', 9, 2, 3\) holds 20995 but re-derivation gives 20994"
        with pytest.raises(CacheCoherenceError, match=named):
            checked_against(text, table)

    def test_every_built_entry_is_a_formula(self):
        runs = flat_k_table(7, mode="formula")
        folds = mstirling_table(7, 3, mode="formula")
        for table in (runs, folds):
            assert {prov for _, prov in table.entries.values()} == {"formula"}
        for n in range(1, 8):
            row = {k: c for (kind, nn, _, k), (c, _) in runs.entries.items()
                   if kind == "flat_k" and nn == n}
            assert row == TABLE1[n][2]

    def test_every_count_of_the_old_cache_is_a_formula_table_entry(self):
        entries = old_cache_entries(10, 5)
        assert len(entries) == 141
        runs = flat_k_table(11, mode="formula")
        folds = mstirling_table(10, 5, mode="formula")
        for (kind, n, m, k), count in entries.items():
            if kind == "typeb":
                assert runs.entries[("flat", n + 1, 2, None)] == (count, "formula"), n
            else:
                table = folds if kind == "mstirling_flat" or m != 2 else runs
                assert table.entries[(kind, n, m, k)] == (count, "formula"), (kind, n, m, k)

    def test_each_order_is_derived_once_per_build_and_per_check(self, monkeypatch):
        """A formula table and ``verify conjectures`` each make one run_distributions call."""
        calls = []

        def counted(n_max):
            calls.append(n_max)
            return run_distributions(n_max)

        monkeypatch.setattr(tables, "run_distributions", counted)
        monkeypatch.setattr(verify, "run_distributions", counted)
        table = flat_k_table(12, mode="formula")
        assert calls == [12]
        assert table.get("flat", 12, 2) == dowling(11)
        calls.clear()
        assert verify.verify_conjectures(max_n=3).passed
        assert calls == [100]

    def test_entries_at_the_bounds_are_derived(self):
        top, m_top = tables.FORMULA_MAX_ORDER, tables.FORMULA_MAX_MULTIPLICITY
        table = mstirling_table(top, m_top, mode="formula")
        assert table.get("stirling", top, m_top) == mstirling_count(top, m_top)
        assert table.get("mstirling_flat", top, 2) == dowling(top - 1)
        doc = {"version": 1, "entries": [
            {"kind": "stirling", "n": top, "m": m_top, "k": None,
             "count": str(mstirling_count(top, m_top)), "provenance": "formula"},
        ]}
        assert len(checked_against(json.dumps(doc), table).entries) == len(table.entries)
