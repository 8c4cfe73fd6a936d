"""Hypothesis fuzz over the CLI argument grammar: exit codes stay in 0..4, with no traceback.

Values are kept small (orders up to 5, no --max-n left at a large
default) so every example runs in well under a second.  ``table
--threads`` is drawn too: it is accepted (at least 1) and ignored.
``map`` text is drawn from ASCII digits, spaces, '-' and '|', two
non-ASCII digits and a digit run longer than ``int()`` converts.
File arguments (``--output``, ``--bfile``) are drawn as a missing path,
a directory, a file of arbitrary bytes or a small version-1 count-table
document.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from flatstir import oeis, tables, verify
from flatstir.cli import main
from flatstir.errors import TableFormatError

SMALL = st.integers(min_value=-2, max_value=5)
BUDGET = st.integers(min_value=-1, max_value=300)


def optional(flag: str, values) -> st.SearchStrategy[list[str]]:
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def command(head: list[str], *options) -> st.SearchStrategy[list[str]]:
    return st.tuples(*options).map(lambda parts: head + [a for part in parts for a in part])


def required(flag: str, values) -> st.SearchStrategy[list[str]]:
    return values.map(lambda v: [flag, str(v)])


GEN = st.sampled_from(["stirling", "flat", "typeb"]).flatmap(
    lambda obj: command(
        ["gen", obj],
        required("--n", SMALL),
        optional("--m", SMALL),
        optional("--format", st.sampled_from(["lines", "json"])),
        optional("--via", st.sampled_from(["filter", "bijection"])),
        optional("--budget", BUDGET),
    )
)
# non-ASCII digits (superscript two, Arabic-Indic one) and a run too long for int()
MAP_PIECES = st.sampled_from(list("0123456789 -|\u00b2\u0661") + ["7" * 4301])
MAP = st.tuples(
    st.sampled_from(["phi", "psi"]), st.lists(MAP_PIECES, max_size=12).map("".join)
).map(lambda pair: ["map", pair[0], pair[1]])
TABLE = command(
    ["table"],
    required("--max-n", SMALL),
    optional("--max-k", SMALL),
    optional("--mode", st.sampled_from(["filter", "bijection", "formula"])),
    optional("--format", st.sampled_from(["csv", "json"])),
    st.sampled_from([[], ["--mstirling"]]),
    optional("--max-m", SMALL),
    optional("--threads", st.integers(min_value=-2, max_value=4)),
    optional("--budget", BUDGET),
)
VERIFY = st.sampled_from(verify.SUITES).flatmap(
    lambda suite: command(
        ["verify", suite],
        required("--max-n", SMALL),
        optional("--budget", BUDGET),
    )
)
OEIS = st.sampled_from(
    sorted(oeis.GENERATORS) + [s.sequence_id for s in oeis.GENERATORS.values()] + ["A000001"]
).flatmap(
    lambda seq: command(
        ["oeis", seq],
        optional("--max-terms", SMALL),
    )
)
COMMANDS = st.one_of(GEN, MAP, TABLE, VERIFY, OEIS)


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the grammar itself
            code = exc.code
    return code, err.getvalue()


# a small version-1 count-table document, its keys in or out of their kind's domain
ENTRY = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(tables.KINDS),
        "n": st.integers(min_value=-2, max_value=12),
        "m": st.one_of(st.none(), st.integers(min_value=-1, max_value=6)),
        "k": st.one_of(st.none(), st.integers(min_value=-1, max_value=9)),
        "count": st.integers(min_value=0, max_value=30).map(str),
        "provenance": st.sampled_from(tables.PROVENANCES),
    }
)
DOCUMENTS = st.lists(ENTRY, max_size=4).map(
    lambda entries: json.dumps({"version": 1, "entries": entries}).encode()
)
# a path argument: missing (with or without its parent), a directory, or a file's bytes
PATHS = st.one_of(
    st.sampled_from(["absent.txt", "absent/file.txt", "directory"]),
    st.binary(max_size=48),
    DOCUMENTS,
)
FILE_COMMANDS = st.one_of(
    command(
        ["table", "--output", "{path}"],
        required("--max-n", SMALL),
        optional("--format", st.sampled_from(["csv", "json"])),
    ),
    st.sampled_from(sorted(oeis.GENERATORS)).flatmap(
        lambda seq: command(["oeis", seq, "--bfile", "{path}"], optional("--max-terms", SMALL))
    ),
)


def materialize(tmp: str, drawn) -> str:
    """A path under ``tmp`` for one drawn PATHS value."""
    if isinstance(drawn, bytes):
        path = os.path.join(tmp, "input.bin")
        with open(path, "wb") as fh:
            fh.write(drawn)
        return path
    if drawn == "directory":
        return tmp
    return os.path.join(tmp, drawn)


@settings(max_examples=120, deadline=None)
@given(st.lists(COMMANDS, min_size=1, max_size=2))
def test_cli_exit_codes_are_total(commands):
    for argv in commands:
        code, err = run(argv)
        assert code in (0, 1, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err, (argv, err)


@settings(max_examples=120, deadline=None)
@given(FILE_COMMANDS, PATHS)
def test_cli_file_arguments_are_total(argv, drawn):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [materialize(tmp, drawn) if a == "{path}" else a for a in argv]
        code, err = run(argv)
        assert code in (0, 1, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err, (argv, err)


@settings(max_examples=120, deadline=None)
@given(DOCUMENTS)
def test_count_table_documents_parse_or_raise_a_format_error(document):
    """Every count-table document, its keys in or out of domain, parses or is a format error."""
    try:
        table = tables.table_from_json(document.decode())
    except TableFormatError:
        return
    assert tables.table_from_json(tables.table_to_json(table)).entries == table.entries
