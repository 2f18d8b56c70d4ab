"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import threading
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from measure import (  # noqa: E402
    another_fits,
    covered,
    latency_summary,
    merge,
    nearest_rank,
    self_time,
    supports,
    tail_percentile,
)
from tracing import (  # noqa: E402
    Tracer,
    install_layers,
    layer_metrics,
    patch_methods,
)


# -- percentile rule ---------------------------------------------------------
def test_nearest_rank_counts_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    assert nearest_rank(samples, 90.0) == (90, 10)
    assert nearest_rank(samples, 50.0) == (50, 50)
    assert nearest_rank([7.0], 90.0) == (7.0, 0)


def test_p90_needs_ten_samples_beyond_it():
    assert not supports(99, 90.0)  # rank 90 leaves 9 beyond
    assert supports(100, 90.0)
    short = latency_summary([float(i) for i in range(99)])
    assert "p90" not in short and short["p50"] == 49.0
    full = latency_summary([float(i) for i in range(100)])
    assert full["p90"] == 89.0 and full["count"] == 100


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail_percentile(list(range(1000))) == (99.0, 989)
    assert tail_percentile(list(range(200))) == (95.0, 189)
    assert tail_percentile(list(range(40))) == (75.0, 29)
    assert tail_percentile(list(range(12))) is None
    assert "tail" not in latency_summary([1.0, 2.0])


def test_median_of_even_count_interpolates():
    assert latency_summary([1.0, 2.0, 3.0, 4.0])["p50"] == 2.5


# -- end of the timed window -----------------------------------------------
def test_another_operation_starts_while_half_of_it_fits():
    # Median operation 4 s: start one more while 2 s of it would fall
    # inside a 30 s window, so the window ends 28-32 s in.
    assert another_fits(27.9, [4.0, 9.0, 3.0], 30.0)
    assert not another_fits(28.0, [4.0, 9.0, 3.0], 30.0)
    # One 28 s operation: the next would end 26 s past the window.
    assert not another_fits(28.0, [28.0], 30.0)


def test_no_finished_operation_ends_the_window():
    assert not another_fits(0.0, [], 30.0)


# -- self time and unattributed time ---------------------------------------
def test_merge_joins_overlaps_and_drops_empty():
    assert merge([(3, 4), (0, 2), (1, 3), (5, 5)]) == [(0, 4)]


def test_self_time_subtracts_the_union_of_children():
    # Overlapping children (two threads) count once; a child reaching
    # past the parent counts only inside it.
    children = [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]
    assert covered(children, 0.0, 10.0) == pytest.approx(4.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(6.0)
    assert self_time(0.0, 10.0, []) == 10.0


def test_unattributed_is_the_window_no_span_covers():
    spans = [(1.0, 2.0), (1.5, 3.0), (-1.0, 0.5)]
    assert self_time(0.0, 4.0, spans) == pytest.approx(1.5)
    assert self_time(0.0, 4.0, [(0.0, 4.0)]) == 0.0


# -- wrappers ----------------------------------------------------------------
class Base:
    def op(self, x):
        return x + 1

    def top(self, k):
        return [v for _, v in zip(range(k), self.walk())]

    def walk(self):
        yield from (1, 2, 3)


class Child(Base):
    def op(self, x):
        return super().op(x) * 2


def test_hot_wrappers_count_outermost_calls_and_restore():
    originals = {cls: dict(cls.__dict__) for cls in (Base, Child)}
    with Tracer() as tracer:
        patch_methods(tracer, Base, ("op", "top", "walk"), "g")
        assert Child().op(1) == 4  # super() inside: counted once
        assert Base().op(1) == 2
        assert Child().top(2) == [1, 2]  # iterates walk(): counted once
        assert list(Base().walk()) == [1, 2, 3]
        hot = tracer.hot_totals()
    assert hot["g.Child"][0] == 2
    assert hot["g.Base"][0] == 2
    assert all(seconds >= 0 for _, seconds in hot.values())
    for cls, before in originals.items():
        assert {k: v for k, v in cls.__dict__.items()} == before


class Lazy:
    """Returns iterators it built, as ``BucketGainContainer`` does."""

    def items(self):
        return map(self._slow, (1, 2, 3))

    def first(self):
        return next(self.items())

    @staticmethod
    def _slow(v):
        time.sleep(0.01)
        return v


def test_returned_iterators_are_timed_while_stepped():
    with Tracer() as tracer:
        patch_methods(tracer, Lazy, ("items", "first"), "g")
        lazy = Lazy()
        assert list(lazy.items()) == [1, 2, 3]
        calls, seconds = tracer.hot_totals()["g.Lazy"]
        assert calls == 1 and seconds >= 0.03
        assert lazy.first() == 1  # items() inside first(): not counted
        calls, after = tracer.hot_totals()["g.Lazy"]
        assert calls == 2 and 0.01 <= after - seconds < 0.03


def test_hot_totals_merge_threads():
    with Tracer() as tracer:
        patch_methods(tracer, Base, ("op",), "g")
        workers = [threading.Thread(target=lambda: [Base().op(i)
                                                    for i in range(100)])
                   for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in workers)
        assert tracer.hot_totals()["g.Base"][0] == 400


def test_spans_nest_and_carry_run_ids():
    mod = types.ModuleType("fake_layer")
    # outer looks inner up in its module, where the patch replaces it.
    exec("def inner():\n    return 1\n\n"
         "def outer(run_id=None):\n    return inner() + 1\n", mod.__dict__)
    outer, inner = mod.outer, mod.inner
    with Tracer() as tracer:
        tracer.patch(mod, "inner", lambda f: tracer.span_wrapper("in", f))
        tracer.patch(mod, "outer", lambda f: tracer.span_wrapper(
            "out", f, run_of=lambda a, k: k.get("run_id")))
        tracer.set_run("op-1")
        assert mod.outer(run_id="job-7") == 2
        assert mod.inner() == 1
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (out,) = by_name["out"]
    first, second = sorted(by_name["in"], key=lambda s: s.start)
    assert first.parent == out.sid and first.run == "job-7"
    assert second.parent is None and second.run == "op-1"
    assert out.start <= first.start <= first.end <= out.end
    assert mod.outer is outer and mod.inner is inner


def test_missing_targets_are_absent_not_errors():
    with Tracer() as tracer:
        assert not tracer.patch_path("x.gone", "repro_no_such_module", "f",
                                     lambda f: f)
        assert not tracer.patch_path("x.attr", "json", "NoSuch.method",
                                     lambda f: f)
        metrics = layer_metrics(tracer, 0.0, 1.0)
    assert {"x.gone", "x.attr"} <= tracer.missing
    assert len(tracer.absent) == 2
    assert metrics["trace.unattributed_s"] == 1.0


def test_metrics_of_missing_layers_are_left_out():
    tracer = Tracer()
    tracer.missing.update({"core.node_gain", "engine.run"})
    metrics = layer_metrics(tracer, 0.0, 1.0)
    assert "core.node_gain_calls" not in metrics
    assert "engine.run_s" not in metrics
    assert metrics["datastructures.gain_container_ops"] == 0


def test_install_layers_wraps_the_program_and_restores_it():
    from repro.core.gains import ProbabilisticGainEngine
    from repro.datastructures.gain_container import GainContainer
    from repro.multilevel import uncoarsen
    from tracing import subclasses

    watched = subclasses(GainContainer) + subclasses(ProbabilisticGainEngine)
    before = {cls: dict(cls.__dict__) for cls in watched}
    coarsen = uncoarsen.nlevel_coarsen
    with install_layers(Tracer()) as tracer:
        assert tracer.absent == []
        assert uncoarsen.nlevel_coarsen is not coarsen
        assert "repro.multilevel.uncoarsen.nlevel_coarsen" in tracer.installed
    assert uncoarsen.nlevel_coarsen is coarsen
    for cls, attrs in before.items():
        assert dict(cls.__dict__) == attrs


def test_traced_partition_matches_untraced_cut():
    from repro import FMPartitioner, PropConfig, PropPartitioner
    from repro.hypergraph import make_benchmark

    graph = make_benchmark("balu")
    prop = PropPartitioner(PropConfig(max_passes=1))
    plain = prop.partition(graph, seed=3).cut
    fm_plain = FMPartitioner().partition(graph, seed=3).cut
    with install_layers(Tracer()) as tracer:
        lo = time.perf_counter()
        assert prop.partition(graph, seed=3).cut == plain
        hi = time.perf_counter()
        assert FMPartitioner().partition(graph, seed=3).cut == fm_plain
        metrics = layer_metrics(tracer, lo, hi)
    assert metrics["core.node_gain_calls"] > 0
    assert metrics["datastructures.gain_container_ops"] > 0
    assert metrics["partition.move_and_lock_calls"] > 0
    assert metrics["baselines.fm_runs"] == 1
    assert 0.0 <= metrics["trace.unattributed_s"] < 0.05 * (hi - lo) + 1e-3


# -- the result line ---------------------------------------------------------
def test_every_metric_is_printed_when_every_operation_fails(
    monkeypatch, tmp_path, capsys
):
    import run

    failed_doc = {
        "setup": {"import_s": 0.2}, "setup_s": 0.2, "attempted": 2,
        # Three problems from two operations: one failed two checks.
        "failures": ["seed 1: a", "seed 1: b", "seed 2: RuntimeError: c"],
        "cut": None, "cuts": {}, "op_walls": [], "wall_s": None,
        "ops_per_s": None, "latencies": [], "window": [0.0, 1.0],
        "layers": {"core.move_loop_s": 0.0}, "peak_rss_mb": 50.0,
        "fingerprint": {"nproc": 1},
        "traced_layers": {}, "hot": {}, "absent": [],
    }
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "run_child", lambda *a: dict(failed_doc))
    names = {m["name"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    for trace in ("0", "1"):
        code = run.main(["--workload", "prop-industry2", "--seed", "1",
                         "--seconds", "1", "--trace", trace])
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 1
        assert last["correct"] is False
        assert (last["attempted"], last["failed"]) == (2, 2)
        if trace == "0":
            assert set(last["metrics"]) == names
            assert last["metrics"]["ok_ratio"]["value"] == 0.0
        assert all(isinstance(m["value"], float)
                   for m in last["metrics"].values())
