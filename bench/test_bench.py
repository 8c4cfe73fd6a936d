"""Tests of the benchmark's own arithmetic, oracles and wiring.

    python3 -m pytest bench/test_bench.py
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from flatstir import reference, tables, typeb  # noqa: E402
from tracing import Tracer, patch  # noqa: E402


# ------------------------------------------------------- order statistics


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([3, 1, 2], 0) == 1
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_samples_beyond_a_percentile():
    assert stats.beyond(1000, 99) == 10
    assert stats.beyond(999, 99) == 9
    assert stats.beyond(20, 50) == 10
    assert stats.beyond(1, 50) == 0


@pytest.mark.parametrize(
    "count, expected",
    [(1000, 99), (999, 95), (200, 95), (199, 90), (100, 90), (40, 75), (39, 50), (20, 50), (3, 50)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_failed_ratio_base_is_checks_attempted():
    assert stats.failed_ratio(0, 250) == 0.0
    assert stats.failed_ratio(5, 250) == 0.02
    assert stats.failed_ratio(0, 0) == 1.0


def test_tally_counts_a_crashed_pass_as_one_failed_check():
    passes = [
        {"report": {"attempted": 10, "failed": 1, "failures": ["x"]}, "error": None},
        {"report": None, "error": "exit 1: boom"},
        {"report": {"attempted": 5, "failed": 0, "failures": []}, "error": None},
    ]
    assert run.tally(passes) == (16, 2, ["x", "exit 1: boom"])


# ------------------------------------------------------------------ spans


def fake_clock(*ticks):
    return iter(ticks).__next__


def span(tracer, name):
    return tracer.summary()["spans"][name]


def test_self_time_subtracts_nested_children():
    tracer = Tracer(clock=fake_clock(0.0, 2.0, 5.0, 6.0, 6.5, 10.0))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert span(tracer, "outer") == {"calls": 1, "total_s": 10.0, "self_s": 6.5, "items": 0}
    assert span(tracer, "inner") == {"calls": 2, "total_s": 3.5, "self_s": 3.5, "items": 0}


def test_grandchildren_count_only_against_their_parent():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 4.0, 7.0, 10.0))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert span(tracer, "c")["self_s"] == 2.0
    assert span(tracer, "b")["self_s"] == 6.0 - 2.0
    assert span(tracer, "a")["self_s"] == 10.0 - 6.0


def test_stream_spans_time_each_next_and_leave_consumer_self_time():
    # consumer opens at 0; creating the stream takes 1..2; two items at
    # 3..4 and 5..7; exhaustion at 8..8.5; consumer closes at 10
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0, 8.5, 10.0))
    stream = tracer.wrap_stream("stream", lambda: iter("ab"))
    with tracer.span("consumer"):
        assert list(stream()) == ["a", "b"]
    assert span(tracer, "stream") == {"calls": 4, "total_s": 4.5, "self_s": 4.5, "items": 2}
    assert span(tracer, "consumer")["self_s"] == 10.0 - 4.5


def test_wrap_records_failed_calls_and_passes_results():
    tracer = Tracer()
    seen = []
    ok = tracer.wrap("ok", lambda x: x * 2, on_result=seen.append)
    boom = tracer.wrap("boom", lambda: 1 / 0)
    assert ok(4) == 8
    with pytest.raises(ZeroDivisionError):
        boom()
    assert seen == [8]
    assert span(tracer, "ok")["calls"] == span(tracer, "boom")["calls"] == 1
    assert tracer.counters == {}


def test_patch_restores_the_original_names():
    original = tables.table1_csv
    with patch([(tables, "table1_csv", len)]):
        assert tables.table1_csv is len
    assert tables.table1_csv is original


def test_layer_metrics_from_a_span_summary():
    summary = {
        "spans": {
            "tables.count_runs_via_bijection": {"calls": 2, "total_s": 3.0, "self_s": 0.5, "items": 0},
            "bijection.iter_flattened_letters": {
                "calls": 12, "total_s": 2.0, "self_s": 2.0, "items": 10},
            "words.count_stirling_stats": {"calls": 1, "total_s": 2.0, "self_s": 2.0, "items": 0},
            "words.scan_one_worker": {"calls": 1, "total_s": 3.0, "self_s": 3.0, "items": 0},
        },
        "counters": {"words.words_visited": 1000, "words.flat_found": 50},
    }
    m = run.layer_metrics(summary)
    assert m["tables.runscan_self_s"] == 0.5
    assert m["bijection.images_ns_per_word"] == pytest.approx(2e8)
    assert m["typeb.partitions"] == 10
    assert m["words.flat_yield_ratio"] == 0.05
    assert m["words.scan_ns_per_word"] == pytest.approx(3e6)
    assert m["words.scan_parallel_speedup"] == 1.5
    assert m["bijection.phi_ns_per_obj"] == 0.0
    assert set(m) | {"trace.overhead_s"} == set(run.declared_metrics("per_layer"))


def test_tracing_overhead_is_traced_minus_untraced_median():
    def fake(work):
        return {"report": {"trace": {"spans": {}, "counters": {}}}, "work": work}

    values = run.per_layer([fake(1.0), fake(1.2), fake(5.0)], [fake(1.5), fake(1.4), fake(1.6)])
    assert values["trace.overhead_s"] == pytest.approx(0.3)


# ---------------------------------------------------------------- oracles


def test_run_distribution_oracle_reproduces_table1():
    dist = oracles.run_distributions(10, 7)
    for n, (_total, flat, by_runs) in reference.TABLE1.items():
        assert dist[n] == by_runs
        assert sum(dist[n].values()) == flat


def test_dowling_oracle_matches_the_bundled_bfile():
    text = (Path(typeb.__file__).parent / "data" / "b007405.txt").read_text()
    terms = [int(line.split()[1]) for line in text.splitlines() if line.strip()]
    assert oracles.dowling_numbers(len(terms) - 1) == terms


def test_word_count_and_csv_oracles_match_reference():
    assert [oracles.word_count(n, 2) for n in range(1, 11)] == [
        reference.TABLE1[n][0] for n in range(1, 11)]
    assert oracles.table1_csv(reference.TABLE1, 3) == "n,|Q_n|,|flat|,k=1,k=2\n1,1,1,1,0\n2,3,2,1,1\n3,15,6,1,5\n"
    assert oracles.table2_csv(reference.TABLE2, 2, 3) == "n,m=2,m=3\n1,1,1\n2,2,3\n"


def test_image_oracle_matches_the_order4_pairs():
    for text, word in reference.PAIRS_ORDER4:
        p = typeb.parse_partition(text)
        raw = (p.zero_block, [(b.negatives, b.positives) for b in p.blocks])
        assert oracles.partition_text(*raw) == text
        assert " ".join(map(str, oracles.image_letters(*raw))) == word


@pytest.mark.parametrize("kind", sorted(oracles.MUTATIONS))
def test_every_mutation_raises_its_documented_class(kind):
    target, expected = oracles.MUTATIONS[kind]
    api = passes.Api(None)
    rng = random.Random(7)
    for p in typeb.generate_typeb(4):
        raw = (p.zero_block, [(b.negatives, b.positives) for b in p.blocks])
        text = oracles.corrupt(kind, *raw, rng)
        assert passes.rejection(api, target, text) == expected, text


def test_mutations_are_seeded():
    p = next(typeb.generate_typeb(5))
    raw = (p.zero_block, [(b.negatives, b.positives) for b in p.blocks])
    first = [oracles.corrupt(k, *raw, random.Random(3)) for k in oracles.MUTATIONS]
    again = [oracles.corrupt(k, *raw, random.Random(3)) for k in oracles.MUTATIONS]
    assert first == again


# ------------------------------------------------------------------ smoke


def test_smoke_run_checks_every_workload(capsys):
    assert run.main(["--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == run.declared_workloads()
