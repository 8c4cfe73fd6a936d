"""Golden CLI output: stdout digests and exit codes pinned for a fixed command list.

A refactor that changes any printed byte fails here.  ``elapsed_seconds``
lines are dropped before hashing.  The error text of ``map phi`` for
non-canonical partitions is pinned byte for byte, one case per validation
diagnostic, and so is that of ``map psi`` for malformed, non-Stirling and
non-flattened words.  The merged run scanner is also pinned against the
brute-force oracle.
"""

import hashlib
import sys

import pytest

import brute_force
from flatstir import words
from flatstir.bijection import word_to_partition
from flatstir.cli import main
from flatstir.errors import DomainError, NotStirlingError
from flatstir.words import StirlingWord

GOLDEN = [
    (["table", "--max-n", "7"], 0,
     "eee6e1e5ad6018a9ff8e1152e090d5cee5923f912504ce45445f651ccc610491"),
    (["table", "--max-n", "7", "--format", "json"], 0,
     "e265fa470e98edaa989b767edd92364a6f6c6e64d9971bc29fea50ff866d9755"),
    (["table", "--max-n", "7", "--mode", "filter"], 0,
     "eee6e1e5ad6018a9ff8e1152e090d5cee5923f912504ce45445f651ccc610491"),
    (["table", "--mstirling", "--max-n", "5", "--mode", "filter"], 0,
     "47819e6b4e02107455226adeac28a1291d313a9847b19dbb96ce14a32c93b785"),
    (["gen", "flat", "--n", "5", "--m", "3"], 0,
     "c48ee2309ac75a3f787f0236014af3224d9f022b0a684263708c2ec1a0f7992b"),
    (["gen", "flat", "--n", "5", "--via", "bijection"], 0,
     "747eadaa0e758b94fb25781edbb9c1c69da0597ac0bf746a44e03916dbabe70f"),
    (["gen", "typeb", "--n", "3"], 0,
     "0ba5abf5dd67dfe464a2fb6f952b7b5af3a20710552c276ba49c96e231107c97"),
    (["map", "phi", "0 1 2 | -4 3"], 0,
     "4556a1029c712ec8f7ce28e3e9c5d4ce329628111d83430eba1a4f3aa60c182c"),
    (["map", "psi", "2211"], 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # one enumeration pass per table: every row of one image count or one walk per m
    (["table", "--max-n", "11"], 0,
     "c33b57c369ddeb79368ba8accd5c96572d9ae879c83e8c0b2df1fb5eb4962768"),
    (["table", "--max-n", "8", "--mode", "filter", "--format", "json"], 0,
     "b6578a6ec352790f6dd9670119f9de8b26f33ba7e757568d4ff4b48d69fb2c1c"),
    (["table", "--mstirling", "--max-n", "6", "--max-m", "5", "--mode", "filter"], 0,
     "fe75aaba9bc85d77b7982aff2c22eb9b8670faf9ebead6bc76ce5382a511c5bd"),
    (["verify", "table1", "--max-n", "5"], 0,
     "70679371bf681b5a0b3490dd576ae65fff4720f53db859d4d2884696208adc0c"),
    # both enumerators' orders: the pruned walk's words and the partition stream
    (["gen", "flat", "--n", "8"], 0,
     "98e1787b0b784674d4ca0740cfd8a5da030e08d2cffec81e10b2eeca18f16f37"),
    (["gen", "flat", "--n", "6", "--m", "3"], 0,
     "baa40122c79d748e44bcfaebe5291cc3b39d2316b90fe5e3a2638303f501d844"),
    (["gen", "flat", "--n", "5", "--m", "5"], 0,
     "0d56c1b3318e3169363ee63a34e9243318bbfd40918b765d42cc52b076f8c811"),
    (["gen", "typeb", "--n", "7"], 0,
     "092d80548e7a12e66f10e274fbd70b42177976bab0687c220fb96e45b2a92f52"),
    (["gen", "flat", "--n", "8", "--via", "bijection"], 0,
     "067deb7a48fe02a2df6fef8c29c2d7b1811957f1300d2f42adb7e193e4c3a452"),
    # the verify suites under budgets that refuse some rows: one pass per row source
    (["verify", "all", "--budget", "3000"], 1,
     "2922fdf2b6e450e6c44de8d90967e2b43f7669ac08b80fee3be433f2d96fcf14"),
    (["verify", "table1", "--max-n", "12"], 0,
     "45a334a6cc34ed1029caf67e7a162fcd230beb81dabd77031c834ddc4ce4d814"),
    (["verify", "table2", "--budget", "100"], 0,
     "b1d555f0758a2e8d97065feb935e91b059f7a9a88b393d1149627f5ea6101357"),
    (["verify", "runs", "--max-n", "8", "--budget", "5000"], 1,
     "c7bd12e840dc434cfebe6ab29fac1ae2caf0697293550350e11ff07cd976eaa7"),
    (["verify", "conjectures", "--budget", "20000"], 1,
     "e071a5aeb7768e71eff1870de977276c4458b1b52a6f7a08831338d4c722da4b"),
    # the formula path: every output that dowling and flatm_series reach
    (["table", "--mode", "formula", "--max-n", "60"], 0,
     "f45c5ccd60a63d7c988ebab670c1494c064e5c2a0437a7f4d734d2b6b8fa1c99"),
    (["table", "--mstirling", "--max-n", "40", "--max-m", "8"], 0,
     "a119281386c87f8f35368bc4cbe4b1973f13b1160f38ab806848e14e44fd6956"),
    (["verify", "table2"], 0,
     "ace171a15f57c13dd56ef512311fef455b3789aad1a239df284221c1cc143066"),
    (["verify", "conjectures"], 0,
     "e763ebaaec5820e35add6688cfa752dae9fb831cf9456b5f2a8a77dbc2d51c89"),
    (["oeis", "dowling"], 0,
     "707517e9d177e0b819cc08ac33672c63cd57efcfa69a242c28cf8a9324fadec7"),
    (["oeis", "mstirling3"], 0,
     "2ed14cfe0f554fd7a4388f2c49ac73ef39e23cbf7060d543e5fd3e43cdf90655"),
]


def stdout_digest(out: str) -> str:
    kept = "\n".join(ln for ln in out.split("\n") if not ln.startswith("elapsed_seconds"))
    return hashlib.sha256(kept.encode()).hexdigest()


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_stdout_and_exit_code(capsys, argv, code, digest):
    assert main(argv) == code
    assert stdout_digest(capsys.readouterr().out) == digest


def test_golden_not_flattened_message(capsys):
    assert main(["map", "psi", "2211"]) == 4
    captured = capsys.readouterr()
    assert captured.err == (
        "error: run starting at position 2 leads with 1, "
        "smaller than the previous leading term 2\n"
    )


PREFIX = "error: partition is not in canonical form: "
INTRA = (
    "elements are not in canonical order "
    "(negatives by decreasing value, then positives increasing)"
)

# (partition text, exit code, stderr) of `map phi`: one text per diagnostic
# code, the parser's own order check, a huge n and one text with many
# diagnostics.  Taken from the build before the one-pass validator.
GOLDEN_PHI_ERRORS = [
    ("1", 4, "zero-block must start with 0; magnitudes must cover 0..1 exactly; got [1]"),
    ("0 -1", 4,
     "zero-block may not contain negatives; zero-block must be strictly increasing; "
     "magnitudes must cover 0..1 exactly; got [-1, 0]"),
    ("0 2 1", 4, "zero-block must be strictly increasing"),
    ("0 | 1 0", 4,
     f"block 1 contains a magnitude below 1; block 1 {INTRA}; "
     "magnitude 0 appears more than once"),
    ("0 1 | -2", 4, "block 1 has no positive element"),
    ("0 | 1 3 2", 4, f"block 1 {INTRA}"),
    ("0 | 1 -2", 4, "block 1: negatives must precede positives"),
    ("0 | -1 2", 4, "block 1: min negative magnitude 1 must exceed min positive 2"),
    ("0 | 2 | 1", 4, "blocks must be sorted by minimal positive element"),
    ("0 1 | 1", 4, "magnitude 1 appears more than once"),
    ("0 2", 4, "magnitudes must cover 0..2 exactly; got [0, 2]"),
    ("0 99999999999", 4,
     "magnitudes must cover 0..99999999999 exactly; got [0, 99999999999]"),
    ("2 0 -2 | -3 | 5 5 | -1 4 | 4 0", 4,
     "zero-block must start with 0; zero-block may not contain negatives; "
     "zero-block must be strictly increasing; block 1 has no positive element; "
     f"block 2 {INTRA}; block 3: min negative magnitude 1 must exceed min positive 4; "
     f"block 4 contains a magnitude below 1; block 4 {INTRA}; "
     "magnitude 5 appears more than once; "
     "magnitudes must cover 0..5 exactly; got [-2, 0, 1, 2, 3, 4, 5]"),
]


@pytest.mark.parametrize("text, code, detail", GOLDEN_PHI_ERRORS,
                         ids=[g[0] for g in GOLDEN_PHI_ERRORS])
def test_golden_map_phi_error_text(capsys, text, code, detail):
    assert main(["map", "phi", text]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == PREFIX + detail + "\n"


LONG = "7" * 5000  # more digits than int() converts at Python's default limit of 4300

# (word text, exit code, stderr) of `map psi`: each syntax error of the word
# parser (the digit limit before a later bad token), each reason of the
# Stirling check that text can reach, non-flattened words and empty text.
# Taken from the build before the one-pass codecs.
GOLDEN_PSI_ERRORS = [
    ("", 2, "empty word text (the empty word has no text form)"),
    (" \t\n", 2, "empty word text (the empty word has no text form)"),
    ("102", 2, "character 1: letter 0 is invalid (compact form allows digits 1-9 only)"),
    ("00", 2, "character 0: letter 0 is invalid (compact form allows digits 1-9 only)"),
    ("1a", 2, "character 1: expected a digit 1-9 in compact word, found 'a'"),
    ("1²", 2, "character 1: expected a digit 1-9 in compact word, found '²'"),
    ("12 x", 2, "token 1: expected a positive decimal letter, found 'x'"),
    ("1 01", 2, "token 1: expected a positive decimal letter, found '01'"),
    ("1 -1", 2, "token 1: expected a positive decimal letter, found '-1'"),
    ("1 +1", 2, "token 1: expected a positive decimal letter, found '+1'"),
    ("1 ١", 2, "token 1: expected a positive decimal letter, found '١'"),
    ("1 𝟙", 2, "token 1: expected a positive decimal letter, found '𝟙'"),
    ("0 0", 2, "token 0: expected a positive decimal letter, found '0'"),
    (f"1 {LONG}", 2, "token 1 has 5000 digits, more than 4300"),
    (f"{LONG} x", 2, "token 0 has 5000 digits, more than 4300"),
    (f"x {LONG}", 2, "token 0: expected a positive decimal letter, found 'x'"),
    ("111", 4, "value 1 occurs 3 times, expected 2"),
    ("1 1 2", 4, "value 2 occurs 1 times, expected 2"),
    ("1 2 1 2 2", 4, "value 2 occurs 3 times, expected 2"),
    ("1 1 3 3", 4, "values [1, 3] do not cover 1..2"),
    ("99999999999 99999999999", 4, "values [99999999999] do not cover 1..1"),
    ("1212", 4, "letter 1 at position 2 lies between occurrences of 2 but is smaller"),
    ("1 2 3 3 1 2", 4, "letter 1 at position 4 lies between occurrences of 2 but is smaller"),
    ("2 1 1 3 3 2", 4, "letter 1 at position 1 lies between occurrences of 2 but is smaller"),
    ("2211", 4,
     "run starting at position 2 leads with 1, smaller than the previous leading term 2"),
    ("2 3 3 2 1 1", 4,
     "run starting at position 4 leads with 1, smaller than the previous leading term 2"),
]


@pytest.mark.parametrize("text, code, detail", GOLDEN_PSI_ERRORS,
                         ids=[g[0].replace(LONG, "7..7") for g in GOLDEN_PSI_ERRORS])
def test_golden_map_psi_error_text(capsys, text, code, detail):
    if LONG not in text:
        assert main(["map", "psi", text]) == code
    elif not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on the digits int() converts")
    else:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(["map", "psi", text]) == code
        finally:
            sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + detail + "\n"


def test_golden_psi_reasons_word_text_cannot_reach():
    """A letter below 1 and the empty word: the word parser refuses their text
    first, so their messages are pinned on the library calls."""
    with pytest.raises(NotStirlingError) as err:
        StirlingWord((1, 0, 1, 0), 2)
    assert str(err.value) == "letter 0 at position 1 is not a positive integer"
    with pytest.raises(NotStirlingError) as err:
        StirlingWord((1, 1, -2, -2), 2)
    assert str(err.value) == "letter -2 at position 2 is not a positive integer"
    with pytest.raises(DomainError) as err:
        word_to_partition(StirlingWord((), 2))
    assert str(err.value) == "the empty word has no corresponding partition (order must be >= 1)"


def test_run_scanner_agrees_with_scan_oracle():
    for m in range(1, 4):
        for n in range(0, 6):
            for word in words.generate_stirling(n, m):
                oracle = words.StirlingStats(n, m)
                brute_force._scan_into(oracle, word.letters)
                flat = oracle.flat_total == 1
                assert words.is_flattened(word) == flat, word
                if flat:
                    runs = len(words.run_starts(word.letters))
                    assert oracle.flat_by_runs == {runs: 1}, word
                    assert words.run_decomposition(word).run_count == runs
