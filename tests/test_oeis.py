"""b-file parsing and the sequence cross-check registry."""

import pytest

from flatstir.errors import BFileFormatError
from flatstir.oeis import (
    GENERATORS,
    OeisSequence,
    bundled_bfile_text,
    compare_sequence,
    parse_bfile,
    read_bfile,
)


class TestParsing:
    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n\n0 1\n1 2\n\n# trailing\n2 6\n"
        seq = parse_bfile(text, "A007405")
        assert seq.terms == ((0, 1), (1, 2), (2, 6))
        assert seq.first_index == 0 and seq.last_index == 2

    def test_negative_values_allowed_by_format(self):
        seq = parse_bfile("5 -3\n6 4\n")
        assert seq.terms[0] == (5, -3)
        assert parse_bfile("-2 -0\n-1 007\n").terms == ((-2, 0), (-1, 7))

    @pytest.mark.parametrize(
        "line",
        ["\u0661 1", "0 +1", "1 1_0", "0 \u00b2", "+1 1", "0 1.0", "0 -", "0 --1", "0 0x1"],
        ids=["arabic-indic index", "plus sign", "underscore", "superscript", "plus index",
             "decimal point", "bare minus", "double minus", "hex"],
    )
    def test_only_ascii_decimal_fields(self, line):
        """Fields are ASCII ``-?[0-9]+``, as in the word, partition and table parsers."""
        with pytest.raises(BFileFormatError) as err:
            parse_bfile(f"# header\n{line}\n")
        assert err.value.line_number == 2
        assert str(err.value) == f"line 2: non-integer field in {line!r}"

    @pytest.mark.parametrize(
        "bad, line",
        [
            ("0 1 2\n", 1),
            ("0\n", 1),
            ("0 x\n", 1),
            ("0 1\n0 2\n", 2),
            ("3 1\n2 1\n", 2),
            ("# only comments\n", None),
            ("", None),
            pytest.param("0 1\n1 " + "7" * 5000 + "\n", 2, id="value-too-long"),
        ],
    )
    def test_malformed_reports_line(self, bad, line):
        with pytest.raises(BFileFormatError) as err:
            parse_bfile(bad)
        assert err.value.line_number == line

    def test_read_bfile(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 1\n1 5\n")
        assert read_bfile(str(path), "X").terms == ((0, 1), (1, 5))


class TestRegistry:
    @pytest.mark.parametrize("generator", sorted(GENERATORS))
    def test_bundled_fixture_matches(self, generator):
        spec = GENERATORS[generator]
        seq = parse_bfile(bundled_bfile_text(spec.sequence_id), spec.sequence_id)
        result = compare_sequence(seq, generator)
        assert result.passed, result
        minimum = 15 if generator in ("dowling", "flat2") else 7
        assert result.checked >= minimum

    def test_mismatch_reports_first_bad_index(self):
        seq = OeisSequence("A007405", ((0, 1), (1, 2), (2, 7), (3, 0)))
        result = compare_sequence(seq, "dowling")
        assert not result.passed
        assert result.first_mismatch == (2, 7, 6)

    def test_max_terms_limits_comparison(self):
        seq = parse_bfile(bundled_bfile_text("A007405"), "A007405")
        result = compare_sequence(seq, "dowling", max_terms=5)
        assert result.checked == 5
        assert result.last_index == 4

    def test_offset_honored_not_assumed(self):
        # a b-file starting at index 3 must be compared from index 3
        seq = OeisSequence("A007405", ((3, 24), (4, 116)))
        result = compare_sequence(seq, "dowling")
        assert result.passed and result.first_index == 3 and result.checked == 2
