"""Count tables: builder modes, CSV/JSON round trips, cache coherence."""

import json

import pytest

from flatstir import tables
from flatstir.errors import CacheCoherenceError, TableFormatError
from flatstir.formulas import mstirling_count, run_distributions
from flatstir.reference import TABLE1, TABLE2
from flatstir.tables import (
    CountTable,
    build_cache,
    check_cache,
    clear_cache,
    count_runs_via_bijection,
    flat_k_table,
    load_cache,
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
        """Both modes fill the same entries, provenance included: |Q_n| is the formula."""
        filt = flat_k_table(7, mode="filter")
        assert filt.entries == flat_k_table(7, mode="bijection").entries
        assert filt.entries[("stirling", 7, 2, None)] == (135_135, "formula")

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
                assert filt.entries[("stirling", n, m, None)] == (mstirling_count(n, m), "formula")

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

    def test_invalid_json_text(self):
        with pytest.raises(TableFormatError):
            table_from_json("{not json")


class TestCache:
    def test_build_then_check(self, tmp_path):
        path = str(tmp_path / "counts.json")
        table = build_cache(path, max_n=5, max_m=3)
        assert table.get("typeb", 4) == 116
        assert table.get("flat_k", 5, 2, 3) == 70
        assert check_cache(path) == len(table.entries)

    def test_tampered_value_is_named(self, tmp_path):
        path = str(tmp_path / "counts.json")
        build_cache(path, max_n=4, max_m=2)
        doc = json.loads(open(path).read())
        for entry in doc["entries"]:
            if entry["kind"] == "flat_k" and entry["n"] == 4 and entry["k"] == 3:
                entry["count"] = "9999"
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CacheCoherenceError, match=r"flat_k.*4"):
            check_cache(path)

    def test_tampered_flat_k_of_the_largest_order_is_named(self, tmp_path):
        """check re-derives every flat_k row, not only the small orders."""
        path = str(tmp_path / "counts.json")
        build_cache(path, max_n=9, max_m=2)
        doc = json.loads(open(path).read())
        for entry in doc["entries"]:
            if entry["kind"] == "flat_k" and entry["n"] == 9 and entry["k"] == 3:
                entry["count"] = str(int(entry["count"]) + 1)
        open(path, "w").write(json.dumps(doc))
        named = r"\('flat_k', 9, 2, 3\) holds 20995 but re-derivation gives 20994"
        with pytest.raises(CacheCoherenceError, match=named):
            check_cache(path)

    def test_every_built_entry_is_a_formula(self, tmp_path):
        path = str(tmp_path / "counts.json")
        table = build_cache(path, max_n=7, max_m=3)
        assert {prov for _, prov in table.entries.values()} == {"formula"}
        for n in range(1, 8):
            row = {k: c for (kind, nn, _, k), (c, _) in table.entries.items()
                   if kind == "flat_k" and nn == n}
            assert row == TABLE1[n][2]

    @pytest.mark.parametrize(
        "entry",
        [
            {"kind": "typeb", "n": -1, "m": None, "k": None},
            {"kind": "flat_k", "n": 0, "m": 2, "k": 1},
            {"kind": "flat_k", "n": 3, "m": 3, "k": 1},
            {"kind": "flat_k", "n": 3, "m": 2, "k": None},
            {"kind": "stirling", "n": 3, "m": None, "k": None},
            {"kind": "flat", "n": 3, "m": 2, "k": 1},
            {"kind": "mstirling_flat", "n": 3, "m": 1, "k": None},
        ],
    )
    def test_out_of_domain_entry_is_a_format_error(self, tmp_path, entry):
        path = str(tmp_path / "counts.json")
        doc = {"version": 1, "entries": [dict(entry, count="1", provenance="formula")]}
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(TableFormatError, match="outside the domain"):
            check_cache(path)
        with pytest.raises(TableFormatError, match="outside the domain"):
            build_cache(path, max_n=2, max_m=2)

    def test_each_order_is_derived_once_per_build_and_per_check(self, tmp_path, monkeypatch):
        calls = []

        def counted(n_max):
            calls.append(n_max)
            return run_distributions(n_max)

        monkeypatch.setattr(tables, "run_distributions", counted)
        path = str(tmp_path / "counts.json")
        build_cache(path, max_n=12, max_m=2)
        assert calls == [12]
        calls.clear()
        check_cache(path)
        assert calls == [12]

    def test_entries_at_the_bounds_are_derived(self, tmp_path):
        path = str(tmp_path / "counts.json")
        doc = {"version": 1, "entries": [
            {"kind": "stirling", "n": 200, "m": 20, "k": None,
             "count": str(mstirling_count(200, 20)), "provenance": "formula"},
        ]}
        open(path, "w").write(json.dumps(doc))
        assert check_cache(path) == 1

    def test_tampered_formula_value_fails_on_load(self, tmp_path):
        path = str(tmp_path / "counts.json")
        build_cache(path, max_n=4, max_m=2)
        doc = json.loads(open(path).read())
        for entry in doc["entries"]:
            if entry["kind"] == "typeb" and entry["n"] == 3:
                entry["count"] = "25"
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CacheCoherenceError):
            load_cache(path)

    def test_rebuild_preserves_and_checks_overlap(self, tmp_path):
        path = str(tmp_path / "counts.json")
        build_cache(path, max_n=6, max_m=4)
        rebuilt = build_cache(path, max_n=4, max_m=2)
        # entries outside the fresh range are carried over, marked cached
        assert rebuilt.get("typeb", 6) == 4088
        assert rebuilt.entries[("typeb", 6, None, None)][1] == "cached"
        assert rebuilt.entries[("typeb", 3, None, None)][1] == "formula"

    def test_clear_is_noop_when_missing(self, tmp_path):
        path = str(tmp_path / "counts.json")
        assert clear_cache(path) is False
        build_cache(path, max_n=2, max_m=2)
        assert clear_cache(path) is True
        assert clear_cache(path) is False
