"""Self-tests for the benchmark's own helpers: the tail-percentile rule,
nearest-rank percentiles, span self time and the trace guard."""

import sys
from dataclasses import asdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from spans import check_spans, self_times  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile",
    [(20, 50), (99, 50), (100, 90), (199, 90), (200, 95), (260, 95), (499, 95), (500, 98), (520, 98),
     (999, 98), (1000, 99), (2000, 99.5), (9999, 99.5), (10000, 99.9), (10**6, 99.9)],
)
def test_tail_percentile_worked_examples(n, percentile):
    assert run.tail_percentile(n) == percentile


def test_tail_percentile_is_the_highest_with_ten_beyond():
    def beyond(n, p):  # samples 0..n-1 ranked above the percentile's value
        return n - 1 - run.nearest_rank(range(n), p)

    for n in range(20, 2500):
        p = run.tail_percentile(n)
        assert beyond(n, p) >= 10, (n, p)
        higher = [q for q in run.TAIL_LADDER if q > p]
        if higher:
            assert beyond(n, higher[0]) < 10, (n, higher[0])


def test_tail_percentile_rejects_too_few_samples():
    with pytest.raises(ValueError):
        run.tail_percentile(19)


def test_nearest_rank_returns_an_observed_sample():
    values = [float(v) for v in range(100, 0, -1)]  # 100..1, unsorted on purpose
    assert run.nearest_rank(values, 50) == 50.0
    assert run.nearest_rank(values, 90) == 90.0
    assert run.nearest_rank(values, 99.5) == 100.0
    assert run.nearest_rank([3.0], 99.9) == 3.0


def test_recorded_tail_sample_counts_and_percentiles():
    for spec in run.WORKLOADS["workloads"].values():
        sim, tail = spec["sim"], spec["tail"]
        assert tail["frames"] == len(range(1, sim["frames"] + 1, sim["frame_stride"]))
        assert run.tail_percentile(tail["frames"]) == tail["percentile"]


def test_stock_workload_is_the_stock_benchmark_scene():
    sim = pytest.importorskip("idtrack.sim")
    recorded = run.WORKLOADS["workloads"]["stock"]["sim"]
    stock = asdict(sim.benchmark_config())
    stock.pop("seed")
    assert {k: list(v) if isinstance(v, tuple) else v for k, v in stock.items()} == recorded


def span(name, start, end, parent=-1):
    return [name, start, end, parent]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, 0),
        span("b", 4.0, 8.0, 0),
        span("b.inner", 5.0, 6.0, 2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        span("root", 0.0, 10.0),
        span("x", 1.0, 5.0, 0),
        span("y", 3.0, 7.0, 0),  # overlaps x: covered 1..7 once
        span("z", 9.0, 12.0, 0),  # only 9..10 lies inside the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([span("leaf", 2.0, 2.5)]) == pytest.approx([0.5])


def test_check_spans_accepts_a_clean_trace():
    spans = [span("root", 0.0, 10.0), span("child", 1.0, 2.0, 0)]
    assert check_spans(spans, expected=("root", "child")) == []


def test_check_spans_flags_child_outside_parent():
    spans = [span("root", 0.0, 10.0), span("child", 9.0, 11.0, 0)]
    problems = check_spans(spans, expected=())
    assert len(problems) == 1 and "outside its parent" in problems[0]


def test_check_spans_flags_open_span_and_silent_wrapper():
    assert "never closed" in check_spans([span("root", 0.0, None)], expected=())[0]
    problems = check_spans([span("root", 0.0, 1.0)], expected=("root", "tracker.step"))
    assert problems == ["expected span tracker.step recorded zero calls"]
