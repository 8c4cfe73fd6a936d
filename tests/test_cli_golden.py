"""Golden CLI output: stdout digests and exit codes pinned for a fixed command list.

The digests were taken from the build before the run scanners, budget
guards and pool paths were merged, and those of the formula path from
the build before ``dowling`` and ``flatm_series`` became row sums of the
r-Whitney triangle; a refactor that changes any printed byte fails
here.  ``elapsed_seconds`` lines are dropped before hashing.  The error
text of ``map phi`` for non-canonical partitions is pinned byte for
byte, one case per validation diagnostic.  The merged run scanner is
also pinned against the brute-force oracle.
"""

import hashlib

import pytest

import brute_force
from flatstir import words
from flatstir.cli import main

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
    (["verify", "table1", "--max-n", "5"], 0,
     "70679371bf681b5a0b3490dd576ae65fff4720f53db859d4d2884696208adc0c"),
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
