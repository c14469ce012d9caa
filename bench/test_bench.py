"""Tests of the benchmark's own arithmetic.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import spans
import stats

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in cfg["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in cfg["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in cfg["workloads"]] == list(run.WORKLOADS)
    setup = next(m["bound"] for m in cfg["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup for m in cfg["end_to_end"])


@pytest.mark.parametrize(
    "n, p, want",
    [(19, 50, False), (20, 50, True), (99, 90, False), (100, 90, True), (999, 99, False), (1000, 99, True)],
)
def test_a_percentile_needs_ten_samples_beyond_it(n, p, want):
    assert stats.supported(n, p) is want


def test_samples_beyond_uses_exact_integer_counts():
    assert stats.samples_beyond(20, 50) == 10
    assert stats.samples_beyond(21, 50) == 10
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(7, 50) == 3


def test_quantiles_match_the_statistics_module():
    q1, q2, q3 = stats.quantiles([1.0, 2.0, 3.0, 4.0, 100.0])
    assert (q1, q2, q3) == (1.5, 3.0, 52.0)


def _span(sid, start, end, parent=None, name=None, thread=1):
    return spans.Span(sid, name or f"s{sid}", start, end, parent, thread)


def test_union_length_merges_overlaps_once():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2
    assert spans.union_length([(0, 4), (1, 2), (3, 6)]) == 6
    assert spans.union_length([(5, 5), (2, 1)]) == 0.0


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span(1, 0, 10, name="root"),
        _span(2, 1, 4, 1, "a"),
        _span(3, 3, 6, 1, "b", thread=2),  # overlaps a in another thread
        _span(4, 2, 3, 2, "leaf"),
    ]
    selfs = spans.self_times(recorded)
    assert selfs == {"root": 5, "a": 2, "b": 3, "leaf": 1}


def test_self_time_clips_children_to_the_parent():
    selfs = spans.self_times([_span(1, 0, 10, name="root"), _span(2, 8, 12, 1, "late")])
    assert selfs["root"] == 8
    assert selfs["late"] == 4


def test_self_times_of_one_name_add_up():
    recorded = [_span(1, 0, 2, name="x"), _span(2, 5, 8, name="x"), _span(3, 6, 7, 2, "y")]
    assert spans.self_times(recorded) == {"x": 4, "y": 1}


def test_concurrency_is_summed_time_over_covered_wall_time():
    assert spans.concurrency([_span(1, 0, 2, name="w"), _span(2, 0, 2, name="w")], "w") == 2.0
    assert spans.concurrency([_span(1, 0, 1, name="w"), _span(2, 1, 2, name="w")], "w") == 1.0
    assert spans.concurrency([], "w") == 0.0


def test_recorder_links_nested_spans_and_pool_threads():
    rec = spans.Recorder()
    traced = rec.wrap("leaf", lambda x: x + 1)
    with rec.span("outer"):
        with rec.span("inner"):
            assert traced(1) == 2
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(traced, range(4))) == [1, 2, 3, 4]
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    outer, inner = by_name["outer"][0], by_name["inner"][0]
    assert outer.parent is None
    assert inner.parent == outer.id
    leaves = by_name["leaf"]
    assert len(leaves) == 5
    assert leaves[0].parent == inner.id
    # Pool threads inherit no context; their spans hang off the span that
    # was open in the recording thread when the work was submitted.
    assert all(s.parent == outer.id for s in leaves[1:])
    assert all(s.start <= s.end for s in rec.spans)
    assert {s.thread for s in leaves[1:]} != {threading.get_ident()}


def test_null_recorder_records_nothing():
    rec = spans.NullRecorder()
    fn = lambda: 3  # noqa: E731
    assert rec.wrap("f", fn) is fn
    with rec.span("x"):
        pass
    assert rec.spans == []


def test_entry_deviation_of_the_node_level_sandwich_is_rounding():
    field, net, m = _small_sandwich()
    entries = reference.sample_entries(m, np.random.default_rng(0), 32)
    assert reference.entry_deviation(entries, field, net) < 1e-13
    shifted = reference.sample_entries(m * (1 + 1e-6), np.random.default_rng(0), 32)
    assert reference.entry_deviation(shifted, field, net) > 1e-9


def test_continuum_ground_state_solves_the_even_mode_equation():
    a, v0 = 1.0, 2.0
    e = reference.continuum_ground_state(a, v0)
    assert -v0 < e < 0
    k = np.sqrt(v0 + e)
    assert k * np.tan(a * k) == pytest.approx(np.sqrt(-e), rel=1e-10)


def _small_sandwich():
    from evbounds import GridSpec, PotentialSpec, build_net, sample_potential, sandwich

    gs = GridSpec(d=2, L=16.0, N=64)
    field = sample_potential(PotentialSpec(kind="indicator_ball", amplitude=1 + 0.5j, R=4.0), gs)
    net = build_net(1.0, 4.0, 2)
    return field, net, sandwich(net, net, field).matrix


def test_matvec_deviation_of_the_node_level_sandwich_is_rounding():
    field, net, m = _small_sandwich()
    rng = np.random.default_rng(1)
    xs = [reference.random_vector(m.shape[1], rng) for _ in range(3)]
    w = reference.at_support(field, field)
    devs = reference.matvec_deviations(field, [w] * 3, net, xs, [m @ x for x in xs], chunk=100)
    assert devs.shape == (3,)
    assert devs.max() < 1e-13


def test_matvec_deviation_catches_one_bad_row():
    field, net, m = _small_sandwich()
    x = reference.random_vector(m.shape[1], np.random.default_rng(2))
    w = reference.at_support(field, field)
    for row in (0, m.shape[0] - 1):
        bad = m.copy()
        bad[row] *= 1 + 1e-6
        assert reference.matvec_deviations(field, w, net, x, bad @ x)[0] > 1e-9
