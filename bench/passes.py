"""One benchmark pass, run in a fresh interpreter so per-process state starts cold.

    python3 bench/passes.py WORKLOAD SEED TRACE WORKERS SIZE

WORKLOAD is images, scan, roundtrip, formulas or warmup; TRACE is 0 or 1;
SIZE is full or smoke.  The pass imports flatstir from the checkout's
``src``, builds its inputs from SEED, runs the workload's operations,
checks every output against the oracles in ``oracles.py`` and prints one
JSON line:

    ready          time.monotonic() when imports and input generation ended
    done           time.monotonic() when the workload's operations and checks ended
    latencies      seconds per timed operation
    attempted, failed, failures   checks made, checks failed, first messages
    objects        answer objects this pass produced (see README.md)
    peak_rss_kib   ru_maxrss of this process and its reaped children
    trace          span summary (traced passes only)
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flatstir import bijection, cli, formulas, oeis, reference, tables, typeb, words  # noqa: E402

import oracles  # noqa: E402
from tracing import Tracer, patch  # noqa: E402

SIZES = {
    "full": {
        "images": {"max_n": 8},
        "scan": {"table1_n": 7, "table2_n": 6, "table2_m": 5},
        "roundtrip": {"typeb_n": 7, "valid": 3000, "corrupt": 300},
        "formulas": {"dowling_n": 150, "flat3_n": 120, "grid_n": 28, "grid_m": 5},
    },
    "smoke": {
        "images": {"max_n": 5},
        "scan": {"table1_n": 4, "table2_n": 3, "table2_m": 3},
        "roundtrip": {"typeb_n": 4, "valid": 40, "corrupt": 12},
        "formulas": {"dowling_n": 20, "flat3_n": 12, "grid_n": 6, "grid_m": 3},
    },
}

MAX_FAILURE_MESSAGES = 5


class Outcome:
    """What a pass measured and checked."""

    def __init__(self):
        self.ready = None
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.objects = 0

    def set_ready(self) -> None:
        self.ready = time.monotonic()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(what)


class Api:
    """The public functions a pass calls, traced at the call site when tracing is on."""

    NAMES = {
        typeb: ("format_partition", "parse_partition"),
        bijection: ("partition_to_word", "word_to_partition", "run_count_from_partition"),
        words: ("format_word", "parse_word", "StirlingWord", "run_decomposition"),
        formulas: ("dowling", "flat3_conjecture", "flatm_recurrence", "flatm_series"),
        cli: ("main",),
    }

    def __init__(self, tracer: Tracer | None):
        for module, names in self.NAMES.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                fn = getattr(module, name)
                setattr(self, name, tracer.wrap(f"{layer}.{name}", fn) if tracer else fn)
        self.compare_sequence = oeis.compare_sequence
        self.generate_typeb = typeb.generate_typeb
        if tracer:
            self.compare_sequence = tracer.wrap(
                "oeis.compare_sequence",
                oeis.compare_sequence,
                on_result=lambda r: tracer.count("oeis.terms_checked", r.checked),
            )
            self.generate_typeb = tracer.wrap_stream("typeb.generate_typeb", typeb.generate_typeb)


def call_site_patches(tracer: Tracer, scanned: list):
    """Wrap the functions the CLI and the generators reach, in the modules that call them.

    ``scanned`` collects the (n, m) of every exhaustive scan so a traced
    scan pass can replay it on one worker.
    """
    count_stirling_stats = words.count_stirling_stats

    def counted_scan(n, m=2, budget=words.DEFAULT_BUDGET, workers=1):
        stats = count_stirling_stats(n, m, budget=budget, workers=workers)
        scanned.append((n, m))
        tracer.count("words.words_visited", stats.total)
        tracer.count("words.flat_found", stats.flat_total)
        return stats

    class RecordingPool(ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            tracer.maximum("words.workers_used", len(getattr(self, "_processes", None) or ()))
            super().shutdown(wait=wait, cancel_futures=cancel_futures)

    projection = "formulas.budget_projection"
    return [
        (tables, "flat_k_table", tracer.wrap("tables.flat_k_table", tables.flat_k_table)),
        (tables, "mstirling_table", tracer.wrap("tables.mstirling_table", tables.mstirling_table)),
        (tables, "table1_csv", tracer.wrap("tables.table1_csv", tables.table1_csv)),
        (tables, "table2_csv", tracer.wrap("tables.table2_csv", tables.table2_csv)),
        (
            tables,
            "count_runs_via_bijection",
            tracer.wrap("tables.count_runs_via_bijection", tables.count_runs_via_bijection),
        ),
        (
            tables,
            "iter_flattened_letters",
            tracer.wrap_stream("bijection.iter_flattened_letters", tables.iter_flattened_letters),
        ),
        (tables, "count_stirling_stats", tracer.wrap("words.count_stirling_stats", counted_scan)),
        (words, "ProcessPoolExecutor", RecordingPool),
        (tables, "dowling", tracer.wrap(projection, tables.dowling)),
        (typeb, "dowling", tracer.wrap(projection, typeb.dowling)),
        (words, "mstirling_count", tracer.wrap(projection, words.mstirling_count)),
        (typeb, "validate_canonical", tracer.wrap("typeb.validate_canonical", typeb.validate_canonical)),
    ]


def timed(out: Outcome, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    out.latencies.append(time.perf_counter() - start)
    return result


def run_cli(api: Api, out: Outcome, argv: list[str], expected: str) -> float:
    """Run one CLI request, check its exit code and stdout; returns its seconds."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = api.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed operation, not a crashed pass
        code = f"traceback {exc!r}"
    elapsed = time.perf_counter() - start
    stdout_ok = buf.getvalue() == expected
    out.check(
        code == 0 and stdout_ok,
        f"flatstir {' '.join(argv)}: exit {code}, stdout {'matches' if stdout_ok else 'differs'}",
    )
    return elapsed


def images(size, seed, api, out, workers):
    n = size["max_n"]
    out.set_ready()
    out.latencies.append(run_cli(api, out, ["table", "--max-n", str(n), "--threads", str(workers)],
                                 oracles.table1_csv(reference.TABLE1, n)))
    out.objects = sum(reference.TABLE1[k][1] for k in range(1, n + 1))


def scan(size, seed, api, out, workers):
    n1, n2, m2 = size["table1_n"], size["table2_n"], size["table2_m"]
    threads = ["--threads", str(workers)]
    out.set_ready()
    # the two requests are one timed operation: their durations differ too
    # much for a percentile over both to mean anything
    out.latencies.append(
        run_cli(api, out, ["table", "--max-n", str(n1), "--mode", "filter"] + threads,
                oracles.table1_csv(reference.TABLE1, n1))
        + run_cli(api, out,
                  ["table", "--mstirling", "--max-n", str(n2), "--max-m", str(m2),
                   "--mode", "filter"] + threads,
                  oracles.table2_csv(reference.TABLE2, n2, m2))
    )
    out.objects = sum(oracles.word_count(n, 2) for n in range(1, n1 + 1)) + sum(
        oracles.word_count(n, m) for n in range(1, n2 + 1) for m in range(2, m2 + 1)
    )


def roundtrip(size, seed, api, out, workers):
    rng = random.Random(seed)
    population = list(api.generate_typeb(size["typeb_n"]))
    inputs = [("valid", p) for p in rng.sample(population, size["valid"])]
    kinds = list(oracles.MUTATIONS)
    for i in range(size["corrupt"]):
        inputs.append((kinds[i % len(kinds)], rng.choice(population)))
    rng.shuffle(inputs)
    prepared = []
    for kind, p in inputs:
        raw = (p.zero_block, [(b.negatives, b.positives) for b in p.blocks])
        if kind == "valid":
            prepared.append((kind, p, oracles.partition_text(*raw), oracles.image_letters(*raw)))
        else:
            prepared.append((kind, p, oracles.corrupt(kind, *raw, rng), None))
    out.set_ready()

    for kind, p, text, letters in prepared:
        if kind == "valid":
            out.check(*valid_round_trip(api, out, p, text, letters))
        else:
            target, expected = oracles.MUTATIONS[kind]
            got = rejection(api, target, text)
            out.check(got == expected, f"{kind} input {text!r}: expected {expected}, got {got}")
    out.objects = size["valid"]


def rejection(api, target: str, text: str) -> str:
    """Class name of the error a corrupted partition or word text raises, or 'no error'.

    ``parse_partition`` documents both of its error classes, so partition
    text must be rejected by the parser itself; word text may get as far
    as ``word_to_partition``.
    """
    try:
        if target == "partition":
            api.parse_partition(text)
        else:
            api.word_to_partition(api.StirlingWord(api.parse_word(text), 2))
    except Exception as exc:  # the class is the result under test
        return type(exc).__name__
    return "no error"


def valid_round_trip(api, out, p, text, letters):
    try:
        start = time.perf_counter()
        shown = api.format_partition(p)
        word = api.partition_to_word(api.parse_partition(shown), verify_output=True)
        word_text = api.format_word(word)
        word2 = api.StirlingWord(api.parse_word(word_text), 2)
        back = api.word_to_partition(word2)
        runs_formula = api.run_count_from_partition(back)
        runs_scan = api.run_decomposition(word2).run_count
        out.latencies.append(time.perf_counter() - start)
    except Exception as exc:  # any error on a valid input is a failed round trip
        return False, f"round trip of {text!r} raised {exc!r}"
    runs = oracles.run_count(letters)
    ok = (
        shown == text
        and word.letters == letters
        and word_text == " ".join(map(str, letters))
        and back == p
        and runs_formula == runs_scan == runs
    )
    return ok, f"round trip of {text!r}: text {shown!r}, word {word_text!r}, back {back}"


def formula_sweeps(size, seed, api, out, workers):
    dn, fn, gn, gm = size["dowling_n"], size["flat3_n"], size["grid_n"], size["grid_m"]
    bfiles = {
        g: oeis.parse_bfile(oeis.bundled_bfile_text(spec.sequence_id), spec.sequence_id)
        for g, spec in oeis.GENERATORS.items()
    }
    grid = [(n, m) for n in range(gn + 1) for m in range(2, gm + 1)]
    out.set_ready()

    dowling = [timed(out, api.dowling, n) for n in range(dn + 1)]
    flat3 = {n: timed(out, api.flat3_conjecture, n) for n in range(1, fn + 1)}
    recurrence = {nm: timed(out, api.flatm_recurrence, *nm) for nm in grid}
    series = {nm: timed(out, api.flatm_series, *nm) for nm in grid}
    comparisons = {g: timed(out, api.compare_sequence, seq, g) for g, seq in bfiles.items()}

    expected_dowling = oracles.dowling_numbers(dn)
    for n, value in enumerate(dowling):
        out.check(value == expected_dowling[n], f"dowling({n}) = {value}, oracle {expected_dowling[n]}")
    three_runs = oracles.run_distributions(fn, 3)
    for n, value in flat3.items():
        expected = three_runs[n].get(3, 0)
        out.check(value == expected, f"flat3_conjecture({n}) = {value}, oracle {expected}")
    for (n, m), value in recurrence.items():
        out.check(series[n, m] == value,
                  f"flatm_series({n}, {m}) = {series[n, m]}, flatm_recurrence {value}")
        if m == 2 and 1 <= n <= dn + 1:
            out.check(value == dowling[n - 1],
                      f"flatm_recurrence({n}, 2) = {value}, dowling({n - 1}) = {dowling[n - 1]}")
        if (n, m) in reference.TABLE2:
            out.check(value == reference.TABLE2[n, m],
                      f"flatm_recurrence({n}, {m}) = {value}, table 2 {reference.TABLE2[n, m]}")
    terms = 0
    for g, result in comparisons.items():
        terms += result.checked
        out.check(result.passed and result.checked > 0,
                  f"oeis {g}: passed={result.passed}, checked={result.checked}, "
                  f"mismatch={result.first_mismatch}")
    out.objects = len(dowling) + len(flat3) + 2 * len(grid) + terms


WORKLOADS = {
    "images": images,
    "scan": scan,
    "roundtrip": roundtrip,
    "formulas": formula_sweeps,
}


def main(argv: list[str]) -> int:
    workload, seed, trace, workers, size = argv
    if workload == "warmup":
        now = time.monotonic()
        print(json.dumps({"ready": now, "done": now}))
        return 0
    tracer = Tracer() if trace == "1" else None
    out = Outcome()
    api = Api(tracer)
    scanned: list = []
    patches = call_site_patches(tracer, scanned) if tracer else []
    with patch(patches):
        WORKLOADS[workload](SIZES[size][workload], int(seed), api, out, int(workers))
    done = time.monotonic()
    summary = None
    if tracer:
        # one-worker replay of the pass's exhaustive scans, for the per-word
        # cost and the parallel speedup
        for n, m in scanned:
            with tracer.span("words.scan_one_worker"):
                words.count_stirling_stats(n, m, workers=1)
        summary = tracer.summary()
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({
        "ready": out.ready,
        "done": done,
        "latencies": out.latencies,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "objects": out.objects,
        "peak_rss_kib": peak,
        "trace": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
