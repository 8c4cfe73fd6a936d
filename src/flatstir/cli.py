"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 verification or
coherence mismatch, 2 usage/parse error, 3 enumeration budget exceeded,
4 domain violation.  A stdout closed by its reader ends the command
with 0 and nothing on stderr.  Comparable output goes to stdout;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bijection, oeis, tables, typeb, verify, words
from .errors import FlatstirError, _describe_count, check_budget
from .formulas import max_runs
from .words import DEFAULT_BUDGET


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"maximum number of objects any enumeration may visit (default {DEFAULT_BUDGET})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatstir",
        description="Generate, validate, map and count flattened (m-)Stirling "
        "permutations and type B set partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit words or partitions, one per line")
    p_gen.add_argument("object", choices=["stirling", "flat", "typeb"])
    p_gen.add_argument("--n", type=int, required=True, help="order / ground-set bound")
    p_gen.add_argument("--m", type=int, default=2, help="multiplicity (words only, default 2)")
    p_gen.add_argument("--format", choices=["lines", "json"], default="lines")
    p_gen.add_argument(
        "--via",
        choices=["filter", "bijection"],
        default="filter",
        help="for 'flat': filter the full word stream, or map the partition stream",
    )
    _add_budget(p_gen)

    p_map = sub.add_parser("map", help="apply the bijection in either direction")
    p_map.add_argument(
        "direction",
        choices=["phi", "psi"],
        help="phi: partition text -> word; psi: word text -> partition",
    )
    p_map.add_argument("input", help="partition text (phi) or word text (psi)")

    p_table = sub.add_parser("table", help="emit count tables as CSV or JSON")
    p_table.add_argument("--max-n", type=int, required=True)
    p_table.add_argument("--max-k", type=int, default=None, help="run-count columns (table 1)")
    p_table.add_argument("--mode", choices=["filter", "bijection", "formula"], default=None)
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.add_argument("--mstirling", action="store_true", help="emit the m-fold table")
    p_table.add_argument("--max-m", type=int, default=5)
    p_table.add_argument("--output", default=None, help="write here instead of stdout")
    _add_budget(p_table)
    # ignored, and hidden from --help; bench/passes.py still sends it
    p_table.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=list(verify.SUITES))
    p_verify.add_argument("--max-n", type=int, default=None)
    _add_budget(p_verify)

    p_oeis = sub.add_parser("oeis", help="cross-check a computed prefix against a b-file")
    p_oeis.add_argument(
        "sequence",
        help="sequence id (e.g. A007405) or generator name "
        f"({', '.join(sorted(oeis.GENERATORS))})",
    )
    p_oeis.add_argument("--bfile", default=None, help="b-file path (default: bundled fixture)")
    p_oeis.add_argument("--max-terms", type=int, default=None)

    return parser


# Smallest accepted value of each numeric argument, per command; a smaller
# value is a usage error (exit 2), not a traceback from the library or a
# check that examines nothing.
_MINIMUMS = {
    "gen": {"n": 0, "m": 1, "budget": 0},
    "table": {"max_n": 1, "max_m": 2, "threads": 1, "budget": 0},
    "verify": {"max_n": 1, "budget": 0},
    "oeis": {"max_terms": 1},
}


def _below_minimum(args) -> str | None:
    """One-line complaint about the first numeric argument below its minimum, or None."""
    for name, low in _MINIMUMS.get(args.command, {}).items():
        value = getattr(args, name)
        if value is not None and value < low:
            return f"--{name.replace('_', '-')} must be at least {low}, got {value}"
    return None


def _usage_error(message) -> int:
    """Report a usage error: one ``error:`` line on stderr, and exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_gen(args) -> int:
    if args.object == "typeb":
        items = (typeb.format_partition(p) for p in typeb.generate_typeb(args.n, budget=args.budget))
    elif args.object == "stirling":
        items = (
            words.format_word(w) for w in words.generate_stirling(args.n, args.m, budget=args.budget)
        )
    else:
        if args.via == "bijection":
            if args.m != 2 or args.n < 1:
                return _usage_error("gen flat --via bijection requires --m 2 and --n 1 or more")
            items = (
                words.format_word(w)
                for w in bijection.generate_flattened_from_partitions(args.n, budget=args.budget)
            )
        else:
            items = (
                words.format_word(w)
                for w in words.generate_flattened_filter(args.n, args.m, budget=args.budget)
            )
    if args.format == "json":
        print(json.dumps(list(items)))
    else:
        for item in items:
            print(item)
    return 0


def _cmd_map(args) -> int:
    if args.direction == "phi":
        partition = typeb.parse_partition(args.input)
        print(words.format_word(bijection.partition_to_word(partition)))
    else:
        word = words.StirlingWord(words.parse_word(args.input), 2)
        print(typeb.format_partition(bijection.word_to_partition(word)))
    return 0


def _check_table_size(args, columns: int) -> None:
    """Budget guard on the cells of the requested table, before any is counted."""
    cells = args.max_n * columns
    check_budget(cells, args.budget, f"a table of {args.max_n} rows and {columns} columns")


def _cmd_table(args) -> int:
    if args.mstirling:
        mode = args.mode or "formula"
        if mode == "bijection":
            return _usage_error("the m-fold table supports --mode filter or formula")
        if args.max_k is not None:
            return _usage_error("--max-k applies to the run-count table, not --mstirling")
        _check_table_size(args, args.max_m - 1)
    else:
        mode = args.mode or "bijection"
        if args.max_k is not None and args.max_k < max_runs(args.max_n):
            return _usage_error(
                f"--max-k {args.max_k} would drop nonzero cells: "
                f"max_runs({args.max_n}) = {max_runs(args.max_n)}"
            )
        _check_table_size(args, 2 + (args.max_k or max_runs(args.max_n)))
    if mode == "formula" and (
        args.max_n > tables.FORMULA_MAX_ORDER
        or args.mstirling and args.max_m > tables.FORMULA_MAX_MULTIPLICITY
    ):
        return _usage_error(
            f"--mode formula takes --max-n up to {tables.FORMULA_MAX_ORDER} "
            f"and --max-m up to {tables.FORMULA_MAX_MULTIPLICITY}"
        )
    if args.mstirling:
        table = tables.mstirling_table(args.max_n, args.max_m, mode=mode, budget=args.budget)
    else:
        table = tables.flat_k_table(args.max_n, mode=mode, budget=args.budget)
    if args.format == "json":
        text = tables.table_to_json(table)
    elif args.mstirling:
        text = tables.table2_csv(table, args.max_n, args.max_m)
    else:
        text = tables.table1_csv(table, args.max_n, args.max_k)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    reports = verify.run_suite(args.suite, max_n=args.max_n, budget=args.budget)
    for report in reports:
        sys.stdout.write(report.render())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_oeis(args) -> int:
    if args.sequence in oeis.GENERATORS:
        generator = args.sequence
    else:
        matches = [g for g, s in oeis.GENERATORS.items() if s.sequence_id == args.sequence]
        if not matches:
            return _usage_error(f"no registered generator for {args.sequence!r}")
        generator = matches[0]
    spec = oeis.GENERATORS[generator]
    if args.bfile:
        sequence = oeis.read_bfile(args.bfile, spec.sequence_id)
    else:
        sequence = oeis.parse_bfile(oeis.bundled_bfile_text(spec.sequence_id), spec.sequence_id)
    result = oeis.compare_sequence(sequence, generator, max_terms=args.max_terms)
    if result.first_mismatch:
        index, filed, local = result.first_mismatch
        try:
            local = str(local)
        except ValueError:  # more digits than Python converts
            local = _describe_count(local)
        print(
            f"{spec.sequence_id} vs {generator}: MISMATCH at index {index}: "
            f"b-file {filed}, computed {local}"
        )
        return 1
    print(
        f"{spec.sequence_id} vs {generator}: {result.checked} terms match "
        f"(indices {result.first_index}..{result.last_index})"
    )
    return 0 if result.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    complaint = _below_minimum(args)
    if complaint:
        return _usage_error(complaint)
    handlers = {
        "gen": _cmd_gen,
        "map": _cmd_map,
        "table": _cmd_table,
        "verify": _cmd_verify,
        "oeis": _cmd_oeis,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout must surface here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader stopped reading (e.g. `| head`): a quiet success
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except FlatstirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a missing, unreadable or directory path is a usage error
        return _usage_error(exc)


if __name__ == "__main__":
    sys.exit(main())
