"""Tests of the benchmark itself: ``python -m pytest bench/``.

Covers the order statistics, self-time arithmetic, restoration of every
traced attribute, metric names against ``BENCHMARK.json``, and each
workload on a tiny board.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stats import percentile, quartiles, relative_iqr, summarize  # noqa: E402
from tracer import JOB, LAYER_PATCHES, Tracer, resolve, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

TINY = {
    "kdj11_hard": {"boards": [["kdj11_2l", 0.2, 1]]},
    "wavelocal_large": {"via_n": 40, "radius": 6, "layers": 4},
    "eco_edits": {"config": "tna", "scale": 0.2},
    "serve_easy": {"rows": ["tna", "nmc_4l"], "scale": 0.2, "boards_per_row": 1},
}


# ----------------------------------------------------------------------
# order statistics
# ----------------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 100) == 5.0
    assert percentile(samples, 90) == pytest.approx(4.6)
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(samples, 101)


def test_quartiles_match_statistics_quantiles():
    samples = [0.9, 1.3, 1.1, 1.0, 2.5, 1.2, 0.8]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    assert quartiles(samples) == (q1, median, q3)
    assert relative_iqr(samples) == pytest.approx((q3 - q1) / median)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert relative_iqr([0.0, 0.0]) == 0.0
    summary = summarize(samples)
    assert summary["median"] == statistics.median(samples)
    assert (summary["q1"], summary["q3"]) == (q1, q3)
    assert summary["samples"] == samples


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    # job [0, 10] > router [1, 9] > lee [2, 6] > reachable_vias [3, 4]
    #                            > lee [6, 8]; verify [9, 10]
    spans = [
        (3, "reachable_vias", 3.0, 4.0, 2, 0),
        (2, "lee", 2.0, 6.0, 1, 0),
        (4, "lee", 6.0, 8.0, 1, 0),
        (1, "router", 1.0, 9.0, 0, 0),
        (5, "verify", 9.0, 10.0, 0, 0),
        (0, JOB, 0.0, 10.0, -1, 0),
    ]
    assert self_times(spans) == {
        "reachable_vias": 1.0,
        "lee": 5.0,
        "router": 2.0,
        "verify": 1.0,
        JOB: 1.0,
    }
    assert sum(self_times(spans).values()) == 10.0


def test_tracer_totals_match_recomputed_self_times():
    tracer = Tracer()
    for _ in range(3):
        with tracer.job():
            with tracer.span("router"):
                for _ in range(4):
                    with tracer.span("lee"):
                        with tracer.span("trace"):
                            sum(range(500))
                sum(range(1000))
            with tracer.span("verify"):
                sum(range(200))
    recomputed = self_times(tracer.spans)
    assert set(recomputed) == set(tracer.self_s)
    for name, value in recomputed.items():
        assert tracer.self_s[name] == pytest.approx(value, abs=1e-9)
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.job_wall())
    assert tracer.calls == {JOB: 3, "router": 3, "lee": 12, "trace": 12, "verify": 3}
    ids = [span[0] for span in tracer.spans]
    assert len(set(ids)) == len(ids)
    assert {span[5] for span in tracer.spans} == {0, 1, 2}


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------


def _current(target):
    owner, attr = resolve(target)
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_patched_attribute_is_restored():
    originals = {target: _current(target) for _, target, _, _ in LAYER_PATCHES}
    tracer = Tracer()
    with tracer.installed():
        for target, original in originals.items():
            assert _current(target) is not original
            assert _current(target).__wrapped__ is original
    for target, original in originals.items():
        assert _current(target) is original
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    for target, original in originals.items():
        assert _current(target) is original


# ----------------------------------------------------------------------
# workloads on tiny boards
# ----------------------------------------------------------------------


@pytest.fixture
def fast_env(monkeypatch):
    """Subprocesses import the sources; ECO rounds are short."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
    monkeypatch.setattr(workloads, "CYCLES_PER_ROUND", 5)
    monkeypatch.setattr(workloads, "CHECK_EVERY", 10)
    monkeypatch.setattr(workloads, "BATCH_SETUP_REPEATS", 2)
    monkeypatch.setattr(workloads, "COLD_ROUTES", 2)
    monkeypatch.setattr(workloads, "SERVER_STARTS", 2)


def _run(tmp_path, name, trace):
    inputs = tmp_path / name
    workloads.make_inputs(name, 3, inputs, TINY[name])
    return workloads.run(name, inputs, 0.0, trace)


def test_result_line_has_the_declared_metrics_and_units():
    metrics = {m["name"]: {"value": 1.5, "n": 3} for m in SPEC["end_to_end"]}
    result = {"attempted": 4, "failed": 0, "errors": [], "metrics": metrics}
    line = json.loads(run.result_line(result, SPEC["end_to_end"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 4
    assert line["metrics"] == {
        m["name"]: {"value": 1.5, "unit": m["unit"]} for m in SPEC["end_to_end"]
    }
    result["failed"] = 1
    assert json.loads(run.result_line(result, SPEC["end_to_end"]))["correct"] is False


def test_make_inputs_is_deterministic(tmp_path):
    for name in ("wavelocal_large", "serve_easy"):
        a = workloads.make_inputs(name, 5, tmp_path / "a" / name, TINY[name])
        b = workloads.make_inputs(name, 5, tmp_path / "b" / name, TINY[name])
        assert a == b
        for path in (tmp_path / "a" / name).iterdir():
            assert path.read_bytes() == (tmp_path / "b" / name / path.name).read_bytes()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_end_to_end_on_tiny_board(tmp_path, fast_env, name):
    result = _run(tmp_path, name, trace=False)
    assert result["errors"] == []
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    metrics = result["metrics"]
    for key in ("setup_s", "wall_s", "conns_per_s", "latency_p50_s", "peak_rss_mb"):
        assert metrics[key]["value"] > 0, key
    assert 0 < metrics["routed_frac"]["value"] <= 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_traced_round_on_tiny_board(tmp_path, fast_env, name):
    originals = {target: _current(target) for _, target, _, _ in LAYER_PATCHES}
    result = _run(tmp_path, name, trace=True)
    for target, original in originals.items():
        assert _current(target) is original
    assert result["errors"] == []
    layers = result["metrics"]
    assert set(layers) == PER_LAYER
    if name == "serve_easy":
        assert layers["serve.route_s"] > 0
        return
    attributed = layers["job.unattributed_s"] + sum(
        value for key, value in layers.items() if key.endswith(".self_s")
    )
    assert attributed == pytest.approx(layers["job.wall_s"], rel=0.01)
    assert layers["router.self_s"] > 0
    if name == "eco_edits":
        assert layers["eco.reroute.self_s"] > 0
    else:
        assert layers["stringer.calls"] == layers["job.calls"]


def test_eco_loop_moves_its_window(tmp_path, fast_env):
    inputs = tmp_path / "eco"
    manifest = workloads.make_inputs("eco_edits", 2, inputs, TINY["eco_edits"])
    session = workloads.open_session(inputs / manifest["board"])
    try:
        loop = workloads.EditLoop(session)
        nets_before = len(session.board.nets)
        first = loop._window()
        tally = workloads.Tally()
        loop.run_cycle(tally)
        assert loop._window() != first
        # The edited slots now hold the nets the cycle created.
        assert all(loop.slots[i] >= nets_before for i in first)
        loop.check(tally)
        assert tally.errors == []
        assert tally.routed > 0
    finally:
        session.close()


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def test_compare_verdicts():
    base = compare.side([{"value": 1.0, "median": 1.0, "samples": [0.99, 1.0, 1.01]}])
    slower = compare.side([{"value": 1.2, "median": 1.2, "samples": [1.19, 1.2, 1.21]}])
    noisy = compare.side([{"value": 1.0, "median": 1.0, "samples": [0.5, 1.0, 1.5]}])
    assert compare.verdict(base, base, "lower", 0.1)[1] == "unchanged"
    assert compare.verdict(base, slower, "lower", 0.1)[1] == "worse"
    assert compare.verdict(slower, base, "lower", 0.1)[1] == "better"
    assert compare.verdict(base, slower, "higher", 0.1)[1] == "better"
    assert compare.verdict(base, noisy, "lower", 0.1)[1] == "unresolved"
    fewer = compare.side([{"value": 0.95, "n": 100}])
    assert compare.verdict(compare.side([{"value": 0.96}]), fewer, "higher", 0.002)[1] == "worse"


def test_compare_spread_within_and_across_runs():
    rounds = [0.9, 1.0, 1.1, 1.0]
    value, spread, samples = compare.side([{"value": 1.0, "samples": rounds}])
    assert (value, samples) == (1.0, rounds)
    assert spread == pytest.approx(relative_iqr(rounds) / 2)
    runs = [{"value": v, "samples": [v / 2, v, 2 * v]} for v in (1.0, 1.02, 0.98, 1.01)]
    centre, spread, samples = compare.side(runs)
    assert centre == pytest.approx(1.005)
    assert samples == [1.0, 1.02, 0.98, 1.01]
    assert spread == pytest.approx(relative_iqr(samples))
