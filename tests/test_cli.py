"""End-to-end CLI behavior, including the exit-code contract."""

import argparse
import json
import multiprocessing
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from flatstir import oeis, tables, words
from flatstir.cli import build_parser, main
from flatstir.errors import BudgetExceededError
from flatstir.reference import PAIRS_ORDER4, TABLE1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_flat_order_one(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "flat", "--n", "1")
        assert code == 0 and out == "1 1\n"

    def test_flat_count(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "flat", "--n", "5")
        assert code == 0 and len(out.splitlines()) == 116

    def test_typeb_nodes_order3(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "typeb", "--n", "3")
        assert code == 0
        assert set(out.splitlines()) == {p for p, _ in PAIRS_ORDER4}
        assert len(out.splitlines()) == 24

    def test_stirling_json(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "stirling", "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == ["2 2 1 1", "1 2 2 1", "1 1 2 2"]

    def test_stirling_at_m_one_prints_the_permutations(self, capsys):
        """m = 1 is the smallest multiplicity: its words of order 4 are the 4! permutations."""
        code, out, _ = run_cli(capsys, "gen", "stirling", "--n", "4", "--m", "1")
        assert code == 0 and len(out.splitlines()) == len(set(out.splitlines())) == 24

    def test_flat_via_bijection_matches_filter_as_sets(self, capsys):
        code, filt, _ = run_cli(capsys, "gen", "flat", "--n", "4")
        code2, bij, _ = run_cli(capsys, "gen", "flat", "--n", "4", "--via", "bijection")
        assert code == code2 == 0
        assert set(filt.splitlines()) == set(bij.splitlines())

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "gen", "stirling", "--n", "12", "--m", "5")
        assert code == 3 and "budget" in err

    def test_budget_message_bounds_a_huge_projection(self):
        """Past 100 digits the message gives a power of ten below the projection."""
        exc = BudgetExceededError(10**5000, 1)
        assert str(exc) == (
            "enumeration would visit more than 10^4999 objects, exceeding the budget of 1"
        )
        assert exc.projected == 10**5000
        assert str(BudgetExceededError(10**100 - 1, 1)).count("9") == 100

    def test_bijection_needs_m2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "flat", "--n", "3", "--m", "3",
                               "--via", "bijection")
        assert code == 2 and "requires" in err


class TestMap:
    def test_forward_examples(self, capsys):
        assert run_cli(capsys, "map", "phi", "0 1 2 | -4 3")[1] == "1 2 2 3 3 1 5 5 4 4\n"
        assert run_cli(capsys, "map", "phi", "0 | -3 1 2")[1] == "1 1 4 4 2 3 3 2\n"

    def test_inverse_examples(self, capsys):
        assert run_cli(capsys, "map", "psi", "1 1 2 2")[1] == "0 | 1\n"
        assert run_cli(capsys, "map", "psi", "13314422")[1] == "0 2 | -3 1\n"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "map", "psi", "1 x 2")
        assert code == 2 and "token" in err
        code, _, err = run_cli(capsys, "map", "phi", "0 | 1a")
        assert code == 2

    def test_domain_error_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "map", "psi", "123321445566778899")
        assert code == 4 and "leads with" in err
        code, _, err = run_cli(capsys, "map", "psi", "1 2 1 2")
        assert code == 4
        code, _, err = run_cli(capsys, "map", "phi", "0 | 2 -1")
        assert code == 4


class TestTable:
    def test_table1_smallest(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "1", "--threads", "1")
        assert code == 0 and out == "n,|Q_n|,|flat|,k=1\n1,1,1,1\n"

    def test_table1_rows_match_reference(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "7", "--threads", "1")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        for row in rows:
            cells = [int(c) for c in row.split(",")]
            n, total, flat, ks = cells[0], cells[1], cells[2], cells[3:]
            ref_total, ref_flat, ref_by = TABLE1[n]
            assert (total, flat) == (ref_total, ref_flat)
            for k, cnt in enumerate(ks, start=1):
                assert cnt == ref_by.get(k, 0)

    def test_filter_and_bijection_modes_agree(self, capsys):
        _, out_f, _ = run_cli(capsys, "table", "--max-n", "5", "--mode", "filter",
                              "--threads", "1")
        _, out_b, _ = run_cli(capsys, "table", "--max-n", "5", "--mode", "bijection",
                              "--threads", "1")
        assert out_f == out_b

    def test_mstirling_matches_reference(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--mstirling", "--max-n", "7",
                               "--threads", "1")
        assert code == 0
        assert out.splitlines()[0] == "n,m=2,m=3,m=4,m=5"
        assert out.splitlines()[7] == "7,4088,25515,96704,276875"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "3", "--format", "json",
                               "--threads", "1")
        doc = json.loads(out)
        assert doc["version"] == 1

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "table", "--max-n", "2", "--output", str(path),
                               "--threads", "1")
        assert code == 0 and out == ""
        assert path.read_text().startswith("n,|Q_n|,|flat|")

    def test_invalid_mode_combination(self, capsys):
        """Only the m-fold table refuses a mode: it has no partition images, and no k columns."""
        code, out, _ = run_cli(capsys, "table", "--max-n", "3", "--mode", "formula",
                               "--threads", "1")
        assert code == 0
        assert out == run_cli(capsys, "table", "--max-n", "3", "--mode", "bijection")[1]
        code, _, err = run_cli(capsys, "table", "--mstirling", "--max-n", "3",
                               "--mode", "bijection", "--threads", "1")
        assert code == 2
        for mode in ("filter", "formula"):
            code, out, err = run_cli(capsys, "table", "--mstirling", "--max-n", "3",
                                     "--mode", mode, "--max-k", "4")
            assert code == 2 and out == ""
            assert err == "error: --max-k applies to the run-count table, not --mstirling\n"

    def test_mstirling_bijection_mode_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "table", "--mstirling", "--max-n", "3",
                                 "--mode", "bijection")
        assert code == 2 and out == ""
        assert err == "error: the m-fold table supports --mode filter or formula\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--max-n", "7", "--mode", "filter"],
            ["table", "--mstirling", "--max-n", "6", "--max-m", "5", "--mode", "filter"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_threads_changes_no_output(self, capsys, argv):
        """``--threads`` is accepted and ignored."""
        one = run_cli(capsys, *argv, "--threads", "1")
        two = run_cli(capsys, *argv, "--threads", "2")
        assert one == two and one[0] == 0


class TestVerify:
    def test_pass_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bijection", "--max-n", "4")
        assert code == 0
        assert "result: PASS" in out
        assert "order-4 pair fixture" in out

    def test_budget_failure_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "table1", "--max-n", "5", "--budget", "10")
        assert code == 1
        assert "budget" in out


class TestOeis:
    def test_bundled_pass(self, capsys):
        for name, seq_id in [("dowling", "A007405"), ("flat2", "A050488"),
                             ("mstirling3", "A355164"), ("mstirling4", "A355167")]:
            code, out, _ = run_cli(capsys, "oeis", name)
            assert code == 0 and "terms match" in out
            code, out, _ = run_cli(capsys, "oeis", seq_id)
            assert code == 0 and seq_id in out

    def test_mismatch_exit_1(self, capsys, tmp_path):
        path = tmp_path / "b007405.txt"
        path.write_text("0 1\n1 2\n2 6\n3 25\n")
        code, out, _ = run_cli(capsys, "oeis", "dowling", "--bfile", str(path))
        assert code == 1
        assert "MISMATCH at index 3" in out

    def test_malformed_exit_2(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 1\nbroken line here\n")
        code, _, err = run_cli(capsys, "oeis", "dowling", "--bfile", str(path))
        assert code == 2 and "line 2" in err

    @pytest.mark.parametrize("line", ["\u0661 1", "0 +1", "1 1_0"])
    def test_non_ascii_decimal_field_exits_2(self, capsys, tmp_path, line):
        path = tmp_path / "b.txt"
        path.write_text(f"0 1\n{line}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "oeis", "dowling", "--bfile", str(path))
        assert (code, out) == (2, "")
        assert f"line 2: non-integer field in {line!r}" in err

    def test_unknown_sequence(self, capsys):
        code, _, err = run_cli(capsys, "oeis", "A000001")
        assert code == 2

    def test_generator_conflict(self, capsys):
        """There is no --generator flag: the positional names the one generator."""
        with pytest.raises(SystemExit) as err:
            main(["oeis", "A007405", "--generator", "flat2"])
        assert err.value.code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "oeis", "dowling", "--bfile",
                               str(tmp_path / "none.txt"))
        assert code == 2

    @pytest.mark.parametrize("generator", sorted(oeis.GENERATORS))
    def test_negative_indices_lie_outside_every_generator(self, capsys, tmp_path, generator):
        """Each generator starts at index 0, so a negative index is skipped;
        a b-file with no other index is one exit-2 error line, not a traceback."""
        term = oeis.GENERATORS[generator].local_term
        path = tmp_path / "b.txt"
        path.write_text(f"-2 5\n-1 1\n0 {term(0)}\n1 {term(1)}\n")
        code, out, err = run_cli(capsys, "oeis", generator, "--bfile", str(path))
        assert (code, err) == (0, "") and "2 terms match (indices 0..1)" in out
        path.write_text("-1 1\n")
        code, out, err = run_cli(capsys, "oeis", generator, "--bfile", str(path))
        assert (code, out) == (2, "")
        assert err == "error: no index of 0 or more (every generator starts at index 0)\n"

    def test_mismatch_beyond_the_digit_limit_is_abbreviated(self, capsys, tmp_path):
        """A computed value with more digits than Python converts prints as a
        power of ten below it, as a budget message does, not as a traceback."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no limit on the digits int() converts")
        path = tmp_path / "b.txt"
        path.write_text("15000 1\n")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run_cli(capsys, "oeis", "flat2", "--bfile", str(path))
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (1, "")
        assert out == "A050488 vs flat2: MISMATCH at index 15000: b-file 1, computed more than 10^4515\n"


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bogus"])
        assert err.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["table"])
        assert err.value.code == 2

    def test_removed_cache_command_is_a_usage_error(self):
        """``cache`` is gone: ``table --mode formula --format json`` writes every count it held."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "flatstir.cli", "cache", "build", "--path", "cache.json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "invalid choice: 'cache'" in proc.stderr

    def test_removed_verify_threads_is_a_usage_error(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "flatstir.cli", "verify", "table1", "--max-n", "2",
             "--threads", "2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "unrecognized arguments: --threads 2" in proc.stderr

    def test_readme_synopsis_names_every_command(self):
        """The README's CLI block has one ``flatstir <command>`` line per subcommand."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI\n", 1)[1].split("```\n")[1]
        documented = {
            line.split()[1] for line in block.splitlines() if line.startswith("flatstir ")
        }
        commands = next(
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert documented == set(commands)


SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "stirling", "--n", "-1"],
        ["gen", "stirling", "--n", "2", "--m", "0"],
        ["gen", "flat", "--n", "3", "--m", "0"],
        ["gen", "flat", "--n", "0", "--via", "bijection"],
        ["table", "--max-n", "0"],
        ["table", "--max-n", "3", "--max-m", "1"],
        ["table", "--mstirling", "--max-n", "3", "--max-m", "1"],
        # the removed cache command: argparse rejects the command itself
        ["cache", "check", "--path", "absent.json", "--max-m", "1"],
        ["oeis", "dowling", "--max-terms", "0"],
        ["oeis", "dowling", "--max-terms", "-1"],
        ["verify", "runs", "--max-n", "0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_range_argument_exits_2_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flatstir.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "flat", "--n", "3", "--m", "3", "--via", "bijection"],
        ["gen", "flat", "--n", "0", "--via", "bijection"],
        ["oeis", "A000001"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_handler_usage_error_is_one_prefixed_line(capsys, argv):
    """The usage errors a handler reports itself read like every other: exit 2,
    nothing on stdout, one stderr line starting ``error: ``."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


LONG = "7" * 5000  # more digits than int() converts at Python's default limit of 4300


@pytest.mark.parametrize(
    "argv, error",
    [
        (["map", "psi", f"{LONG} {LONG}"], "token 0 has 5000 digits, more than 4300"),
        (["map", "phi", f"0 | {LONG}"], "block 1, element 0 has 5000 digits, more than 4300"),
        (["map", "psi", "1 \u00b2"], "token 1: expected a positive decimal letter, found '\u00b2'"),
        (["map", "psi", "\u0661\u0661"],
         "character 0: expected a digit 1-9 in compact word, found '\u0661'"),
        (["oeis", "dowling", "--bfile", "{path}"], "line 1: value has 5000 digits, more than 4300"),
    ],
    ids=["psi long tokens", "phi long token", "psi superscript two", "psi arabic-indic ones",
         "bfile long value"],
)
def test_malformed_number_exits_2_with_one_line(argv, error, tmp_path):
    """Over-long and non-ASCII digit tokens are syntax errors, not tracebacks."""
    bfile = tmp_path / "b.txt"
    bfile.write_text(f"1 {LONG}\n")
    argv = [str(bfile) if a == "{path}" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]),
               PYTHONINTMAXSTRDIGITS="4300", PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "flatstir.cli", *argv],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "stirling", "--n", "1700"],
        ["gen", "flat", "--n", "1700"],
        ["gen", "typeb", "--n", "1850"],
        ["gen", "flat", "--n", "1850", "--via", "bijection"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_projection_too_long_to_print_exits_3_without_traceback(argv):
    """Each projection has more digits than int() may turn into text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flatstir.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "would visit more than 10^" in proc.stderr
    assert proc.stdout == ""


def test_huge_partition_magnitude_is_rejected_in_bounded_memory():
    """The coverage check must not build range(n + 1) for the largest magnitude n."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flatstir.cli", "map", "phi", "0 99999999999"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory,
    )
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert "cover 0..99999999999" in proc.stderr


def test_huge_block_family_is_canonicalized_in_bounded_memory():
    """The coverage check of canonicalize must not build range(-n, n + 1) either."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    script = (
        "from flatstir.errors import NotTypeBError\n"
        "from flatstir.typeb import canonicalize\n"
        "try:\n"
        "    canonicalize([[0], [10**11], [-10**11]])\n"
        "except NotTypeBError as exc:\n"
        "    print(exc.condition, exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "3 not a type B set partition (condition 3): blocks do not cover "
        "[-100000000000, 100000000000] (199999999998 missing: -99999999999, "
        "-99999999998, -99999999997, -99999999996, -99999999995, ...)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--max-n", "2", "--output", "{dir}"],
        ["oeis", "dowling", "--bfile", "{dir}"],
        ["oeis", "dowling", "--bfile", "{binary}"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_unusable_path_exits_2_without_traceback(argv, tmp_path):
    """A directory, or a file that is not UTF-8 text, is a usage error with one line."""
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe1 1\n")
    argv = [a.format(dir=tmp_path, binary=binary) for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flatstir.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert binary.read_bytes() == b"\xff\xfe1 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--mstirling", "--mode", "formula", "--max-n", "200", "--max-m", "100000"],
        ["table", "--mstirling", "--max-n", "3", "--max-m", "21"],
        ["table", "--mstirling", "--max-n", "201"],
        ["table", "--mode", "formula", "--max-n", "201"],
        ["table", "--mode", "formula", "--max-n", "5000", "--format", "json"],
    ],
    ids=["max-m 100000", "max-m 21", "m-fold max-n 201", "max-n 201", "max-n 5000 json"],
)
def test_formula_table_above_the_bounds_exits_2_before_any_work(argv):
    """Formula tables stop at order 200 and multiplicity 20, checked before any count."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flatstir.cli", *argv],
        capture_output=True, text=True, env=env, timeout=30, preexec_fn=cap_memory,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: --mode formula takes --max-n up to 200 and --max-m up to 20\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--max-n", "3", "--max-k", "1000000000"],
        ["table", "--mstirling", "--max-n", "3", "--max-m", "1000000000"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_huge_table_exits_3_before_any_work(argv):
    """The cell count is checked against --budget before a table is built."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flatstir.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: a table of 3 rows and ") and proc.stderr.count("\n") == 1
    assert "exceeding the budget of 50000000" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["table", "--max-n", "12"],
         "flattened words of order 12 would visit 157554048 objects"),
        (["table", "--max-n", "10", "--mode", "filter"],
         "generating order-10 words (m=2) would visit 654729075 objects"),
        (["table", "--mstirling", "--max-n", "8", "--mode", "filter"],
         "generating order-8 words (m=4) would visit 151412625 objects"),
    ],
    ids=["bijection", "filter", "mstirling-filter"],
)
def test_over_budget_table_refuses_before_counting_any_row(capsys, monkeypatch, argv, refusal):
    """Every order's projection is checked, ascending, before the first count."""
    def refuse(*args, **kwargs):
        raise AssertionError("a row was counted")

    monkeypatch.setattr(tables, "image_run_distributions", refuse)
    monkeypatch.setattr(tables, "_walk_stats", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"error: {refusal}, exceeding the budget of 50000000\n"


def test_table_cells_count_against_the_budget(capsys):
    code, out, err = run_cli(capsys, "table", "--mstirling", "--max-n", "4", "--budget", "11")
    assert code == 3 and out == ""
    assert err == (
        "error: a table of 4 rows and 4 columns would visit 16 objects, "
        "exceeding the budget of 11\n"
    )
    code, _, _ = run_cli(capsys, "table", "--mstirling", "--max-n", "4", "--budget", "16")
    assert code == 0


def test_closed_stdout_exits_0_quietly():
    """A reader that stops early (``| head -1``) is not an error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "flatstir.cli", "gen", "typeb", "--n", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"0 | 1 2 3 4 5 6 7\n"
    proc.stdout.close()  # about 700 kB remain unwritten, far more than a pipe holds
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_2(capsys, threads):
    code, out, err = run_cli(capsys, "table", "--max-n", "3", "--threads", threads)
    assert code == 2 and out == ""
    assert err == f"error: --threads must be at least 1, got {threads}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "flat", "--n", "3", "--budget", "-1"],
        ["table", "--max-n", "5", "--budget", "-1"],
        ["verify", "table1", "--budget", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_budget_exits_2(capsys, argv):
    """A budget below 0 refuses everything: a usage error, not a refusal or a FAIL report."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --budget must be at least 0, got -1\n"


def test_workers_start_no_process(capsys, monkeypatch):
    """``workers`` and ``--threads`` are ignored: the walk is serial at every size."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(words, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    assert words.count_stirling_stats(7, 5, workers=2) == words.count_stirling_stats(7, 5)
    code, out, _ = run_cli(capsys, "table", "--mstirling", "--max-n", "7", "--mode", "filter",
                           "--threads", "2")
    assert code == 0 and out.splitlines()[7] == "7,4088,25515,96704,276875"


def test_max_k_below_max_runs_names_the_maximum(capsys):
    code, out, err = run_cli(capsys, "table", "--max-n", "5", "--max-k", "2")
    assert code == 2 and out == ""
    assert err == "error: --max-k 2 would drop nonzero cells: max_runs(5) = 4\n"
    code, out, _ = run_cli(capsys, "table", "--max-n", "5", "--max-k", "4")
    assert code == 0
    assert all(sum(map(int, row.split(",")[3:])) == int(row.split(",")[2])
               for row in out.splitlines()[1:])


def test_oeis_comparison_that_checked_nothing_exits_1(capsys, monkeypatch):
    from flatstir import oeis

    monkeypatch.setattr(
        oeis, "compare_sequence",
        lambda seq, gen, max_terms=None: oeis.SequenceComparison(gen, seq.id, 0, 0, 0, None),
    )
    code, _, _ = run_cli(capsys, "oeis", "dowling")
    assert code == 1
