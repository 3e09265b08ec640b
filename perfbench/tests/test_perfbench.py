"""Tests of the benchmark itself: inputs, metric names, span accounting."""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), BENCH) if p not in sys.path]

from spotbench import inputs  # noqa: E402
from spotbench.layers import PER_LAYER, install  # noqa: E402
from spotbench.spans import SpanRecorder  # noqa: E402
from spotbench.workloads import ServeZipf, SteerSmog, run_segment  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# -- inputs ----------------------------------------------------------------------
def test_generators_are_deterministic_per_seed():
    assert inputs.steering_schedule(5) == inputs.steering_schedule(5)
    assert inputs.steering_schedule(5) != inputs.steering_schedule(6)
    assert inputs.zipf_sessions(5, 3, 200, 64) == inputs.zipf_sessions(5, 3, 200, 64)
    assert inputs.zipf_sessions(5, 3, 200, 64) != inputs.zipf_sessions(6, 3, 200, 64)
    assert inputs.play_plans(5, 4, 96) == inputs.play_plans(5, 4, 96)
    assert inputs.play_plans(5, 4, 96) != inputs.play_plans(6, 4, 96)
    first, second = inputs.smog_history(5, 6), inputs.smog_history(5, 6)
    for frame in range(6):
        assert np.array_equal(first.read_history(frame).data, second.read_history(frame).data)


def test_dns_database_is_deterministic_and_reused(tmp_path):
    small = dict(n_frames=3, grid=(24, 18), spinup=0.2)
    a = inputs.dns_database(str(tmp_path / "a"), **small)
    b = inputs.dns_database(str(tmp_path / "b"), **small)
    assert len(a) == len(b) == 3
    for frame in range(3):
        assert np.array_equal(a.read(frame).data, b.read(frame).data)
    stamp = os.path.getmtime(a.directory)
    again = inputs.dns_database(str(tmp_path / "a"), **small)
    assert os.path.getmtime(again.directory) == stamp


def test_every_browse_session_renders_its_whole_window_first():
    window, k = inputs.WINDOW, inputs.FRAMES_PER_PLAY
    covered = {f for _, start, stop in inputs.FIRST_PASS for f in range(start, stop)}
    assert covered == set(range(1, window))
    for plan in inputs.play_plans(9, 16, 96):
        assert plan.plays[: len(inputs.FIRST_PASS)] == inputs.FIRST_PASS
        assert len(plan.plays) == len(inputs.FIRST_PASS) + inputs.REPLAYS
        assert all(stop - start == k for _, start, stop in plan.plays)
        assert all(0 <= start < stop <= window for _, start, stop in plan.plays)
        assert 0 <= plan.offset <= 96 - window
        assert all(0 <= f < window for f in plan.checks)


# -- metric names ----------------------------------------------------------------
def test_benchmark_json_lists_the_reported_metrics():
    sys.path.insert(0, BENCH)
    import run

    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == ["browse-dns", "serve-zipf", "steer-smog"]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    out = _run("steer-smog", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("steer-smog", 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert not out.stdout.strip()


_STOP_CHILDREN = """
import multiprocessing, os, sys, time
from multiprocessing import resource_tracker
sys.path.insert(0, "perfbench")
import run
resource_tracker.ensure_running()
tracker = resource_tracker._resource_tracker._pid
worker = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,), daemon=True)
worker.start()
run.stop_children()
try:
    os.kill(tracker, 0)
except ProcessLookupError:
    tracker = None
print(len(multiprocessing.active_children()), worker.exitcode is not None, tracker)
"""


def test_stop_children_reaps_workers_and_the_resource_tracker():
    out = subprocess.run([sys.executable, "-c", _STOP_CHILDREN], cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "True", "None"]

# -- spans -----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("middle"):
            with recorder.span("inner"):
                time.sleep(0.002)
        time.sleep(0.002)
    whole = recorder.durations()
    own = recorder.self_times()
    assert own["inner"][0] == pytest.approx(whole["inner"][0])
    assert own["middle"][0] == pytest.approx(whole["middle"][0] - whole["inner"][0])
    assert own["outer"][0] == pytest.approx(whole["outer"][0] - whole["middle"][0])
    assert min(v for values in own.values() for v in values) >= 0.0


class _SmallServe(ServeZipf):
    requests_per_session = 200


@pytest.mark.parametrize("workload", [SteerSmog, _SmallServe])
def test_traced_segment_spans_are_consistent(workload, tmp_path):
    bench = workload(7, str(tmp_path))
    recorder = SpanRecorder()
    install(recorder)
    try:
        t0 = time.perf_counter()
        segment = run_segment(bench, 0.3, recorder)
        wall = time.perf_counter() - t0
    finally:
        recorder.unpatch_all()
    from repro.glsim.pipe import GraphicsPipe

    assert not hasattr(GraphicsPipe.execute, "__wrapped__")
    assert segment.failed == 0 and segment.attempted >= 1
    own = recorder.self_times()
    assert own["op"] and own["parallel.synthesize"]
    assert min(v for values in own.values() for v in values) >= 0.0
    for root_total in recorder.root_time_per_thread():
        assert root_total <= wall
    if workload is _SmallServe:
        # Renders run on the serving pool's threads under the op that
        # submitted them.
        threads = recorder.threads()
        render_ops = {op for spans in threads for name, *_, op in spans if name == "service.render"}
        assert render_ops and -1 not in render_ops
