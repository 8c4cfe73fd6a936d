"""flatstir benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout.  The load is a closed loop: this one
process starts a pass, waits for it to finish and starts the next, until
``--seconds`` have passed.  Each pass is a fresh interpreter
(``passes.py``), so caches and peak memory start cold as they do for a
CLI user; it uses at most min(2, usable CPUs) worker processes.  Every
output is checked against an independent oracle.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
medians over passes.  With ``--trace 1`` untraced and traced passes
alternate; the per-layer metrics are medians over the traced passes and
``trace.overhead_s`` is the traced minus the untraced median pass time.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The lines before it record provenance (host, Python,
source revision, seed, object counts) and, for traced runs, the span
summaries.  ``--smoke`` runs every workload once at a tiny size, traced
and untraced, to check the oracle wiring in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "flatstir"

MIN_PASSES = 3
RUN_LIMIT_S = 165  # a run, hung passes included, ends well inside three minutes



def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_workloads() -> list[str]:
    return [w["name"] for w in load_spec()["workloads"]]


def declared_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in load_spec()[section]}


def worker_count() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def run_pass(workload: str, seed: int, trace: bool, size: str, timeout: float) -> dict:
    """Run one pass in a fresh interpreter; times are from spawn to exit."""
    cmd = [sys.executable, str(BENCH / "passes.py"), workload, str(seed),
           "1" if trace else "0", str(worker_count()), size]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=dict(os.environ, PYTHONHASHSEED="0"),
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and any pool workers it started
        out, err = proc.communicate()
    end = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = out.strip().splitlines()
    report = None
    if proc.returncode == 0 and lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {
        "wall": end - spawn,
        "cpu": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "setup": report["ready"] - spawn if report else None,
        "work": report["done"] - spawn if report else None,
        "report": report,
        "error": None if report else f"exit {proc.returncode}: {err.strip()[-2000:]}",
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str,
            min_passes: int = MIN_PASSES) -> tuple[list[dict], list[dict]]:
    """Closed loop of passes for ``seconds``; returns (untraced, traced) passes."""
    deadline = time.monotonic() + RUN_LIMIT_S
    run_pass("warmup", seed, False, size, RUN_LIMIT_S)  # writes bytecode caches before timing
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        tracing = trace and len(traced) < len(plain)
        timeout = max(1.0, deadline - time.monotonic())
        (traced if tracing else plain).append(run_pass(workload, seed, tracing, size, timeout))
        now = time.monotonic()
        enough = len(plain) >= min_passes and (not trace or len(traced) >= min_passes)
        if (enough and now - start >= seconds) or now >= deadline:
            return plain, traced


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Checks attempted and failed; a pass that crashed counts as one failed check."""
    attempted = failed = 0
    failures: list[str] = []
    for p in passes:
        if p["report"] is None:
            attempted += 1
            failed += 1
            failures.append(p["error"])
        else:
            attempted += p["report"]["attempted"]
            failed += p["report"]["failed"]
            failures += p["report"]["failures"]
    return attempted, failed, failures


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over the passes that ran, and what they were computed from.

    Pass-level metrics are medians over passes; op latencies are
    percentiles over every operation of the run.
    """
    ok = [p for p in passes if p["report"]]
    if not ok:
        return {}, {}
    per_pass = {
        "wall_s": [p["wall"] for p in ok],
        "objects_per_s": [p["report"]["objects"] / p["wall"] for p in ok],
        "cpu_s": [p["cpu"] for p in ok],
        "peak_rss_mib": [p["report"]["peak_rss_kib"] / 1024 for p in ok],
        "setup_s": [p["setup"] for p in ok],
    }
    values = {name: statistics.median(column) for name, column in per_pass.items()}
    latencies = [t for p in ok for t in p["report"]["latencies"]]
    tail = stats.tail_percentile(len(latencies))
    values["op_p50_us"] = stats.percentile(latencies, 50) * 1e6
    values["op_tail_us"] = stats.percentile(latencies, tail) * 1e6
    basis = {
        "per_pass": per_pass,
        "op_samples": len(latencies),
        "op_tail_percentile": tail,
        "op_tail_samples_beyond": stats.beyond(len(latencies), tail),
    }
    return values, basis


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced pass from its span summary."""
    spans, counters = summary["spans"], summary["counters"]

    def field(name, key):
        return spans[name][key] if name in spans else (0.0 if key.endswith("_s") else 0)

    def per(name, key):
        n = field(name, key)
        return field(name, "total_s") / n * 1e9 if n else 0.0

    visited = counters.get("words.words_visited", 0)
    parallel = field("words.count_stirling_stats", "total_s")
    one_worker = field("words.scan_one_worker", "total_s")
    return {
        "cli.self_s": field("cli.main", "self_s"),
        "tables.runscan_self_s": field("tables.count_runs_via_bijection", "self_s"),
        "tables.emit_s": field("tables.table1_csv", "total_s") + field("tables.table2_csv", "total_s"),
        "bijection.images_ns_per_word": per("bijection.iter_flattened_letters", "items"),
        "bijection.phi_ns_per_obj": per("bijection.partition_to_word", "calls"),
        "bijection.psi_ns_per_obj": per("bijection.word_to_partition", "calls"),
        "bijection.runs_formula_ns_per_obj": per("bijection.run_count_from_partition", "calls"),
        "typeb.partitions": field("typeb.generate_typeb", "items")
        + field("bijection.iter_flattened_letters", "items"),
        "typeb.generate_ns_per_obj": per("typeb.generate_typeb", "items"),
        "typeb.validate_ns_per_obj": per("typeb.validate_canonical", "calls"),
        "typeb.parse_ns_per_obj": per("typeb.parse_partition", "calls"),
        "typeb.format_ns_per_obj": per("typeb.format_partition", "calls"),
        "words.words_visited": visited,
        "words.flat_found": counters.get("words.flat_found", 0),
        "words.flat_yield_ratio": counters.get("words.flat_found", 0) / visited if visited else 0.0,
        "words.scan_ns_per_word": one_worker / visited * 1e9 if visited else 0.0,
        "words.workers_used": counters.get("words.workers_used", 0),
        "words.scan_parallel_speedup": one_worker / parallel if parallel else 0.0,
        "words.stirling_word_ns_per_obj": per("words.StirlingWord", "calls"),
        "words.parse_ns_per_obj": per("words.parse_word", "calls"),
        "words.format_ns_per_obj": per("words.format_word", "calls"),
        "words.run_decomposition_ns_per_obj": per("words.run_decomposition", "calls"),
        "formulas.dowling_s": field("formulas.dowling", "total_s"),
        "formulas.flat3_s": field("formulas.flat3_conjecture", "total_s"),
        "formulas.flatm_recurrence_s": field("formulas.flatm_recurrence", "total_s"),
        "formulas.flatm_series_s": field("formulas.flatm_series", "total_s"),
        "formulas.budget_projection_s": field("formulas.budget_projection", "total_s"),
        "oeis.compare_s": field("oeis.compare_sequence", "total_s"),
        "oeis.terms_checked": counters.get("oeis.terms_checked", 0),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    plain = [p for p in plain if p["report"]]
    traced = [p for p in traced if p["report"]]
    if not plain or not traced:
        return {}
    rows = [layer_metrics(p["report"]["trace"]) for p in traced]
    # the low median is the value of one traced pass, so counts stay integers
    values = {name: statistics.median_low([row[name] for row in rows]) for name in rows[0]}
    values["trace.overhead_s"] = statistics.median([p["work"] for p in traced]) - statistics.median(
        [p["work"] for p in plain]
    )
    return values


def source_revision() -> dict:
    """Git commit when the checkout has one, and a digest of the package sources."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    plain, traced = measure(workload, seed, seconds, trace, "full")
    attempted, failed, failures = tally(plain + traced)
    e2e, basis = end_to_end(plain)
    wanted = declared_metrics("per_layer" if trace else "end_to_end")
    values = per_layer(plain, traced) if trace else e2e
    ok_passes = [p for p in plain if p["report"]]
    print(json.dumps({"provenance": {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workers": worker_count(),
        "python": platform.python_version(),
        **source_revision(),
        "passes": len(plain),
        "traced_passes": len(traced),
        "objects_per_pass": ok_passes[0]["report"]["objects"] if ok_passes else None,
        "failed_ratio": stats.failed_ratio(failed, attempted),
        "failures": failures[:10],
        "end_to_end": e2e,
        **basis,
    }}))
    if trace:
        print(json.dumps({"trace": [p["report"]["trace"] for p in traced if p["report"]]}))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted.items() if name in values}
    return {
        "correct": failed == 0 and len(metrics) == len(wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def smoke(seed: int) -> int:
    """Every workload once at a tiny size, untraced and traced; 0 when all checks pass."""
    status = 0
    for workload in declared_workloads():
        plain, traced = measure(workload, seed, 0, True, "smoke", min_passes=1)
        attempted, failed, failures = tally(plain + traced)
        e2e, _ = end_to_end(plain)
        layers = per_layer(plain, traced)
        complete = (set(e2e) == set(declared_metrics("end_to_end"))
                    and set(layers) == set(declared_metrics("per_layer")))
        good = failed == 0 and attempted > 0 and complete
        status |= not good
        print(f"{workload}: {'ok' if good else 'FAILED'} ({attempted} checks, {failed} failed)"
              + "".join(f"\n  {f}" for f in failures[:5]))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=declared_workloads())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: no flatstir sources under {PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    seconds = load_spec()["run_seconds"] if args.seconds is None else args.seconds
    result = run(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
