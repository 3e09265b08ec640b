"""Spot noise benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload steer-smog --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: it first
opens the workload's program objects several times to time set-up, then
runs whole sessions for ``--seconds`` timed seconds.  ``--trace 1`` runs
the workload for ``--seconds / 4`` untraced, then traced, twice over, and
reports the per-layer metrics of the traced half together with the
tracing overhead; the spans are written to ``.bench_out/``.

Both modes check sampled outputs against independent renders, time the
host calibration kernel of ``benchmarks/test_smoke_regression.py`` in a
separate process before and after the run, and print one JSON object as
the last line of standard output.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
]

_CALIBRATE = (
    "import sys, time\n"
    "sys.path[:0] = ['src', 'benchmarks']\n"
    "from test_smoke_regression import _calibrate\n"
    "print(_calibrate())\n"
)


def calibrate() -> float:
    """Host calibration kernel time in ms, measured in a fresh process."""
    out = subprocess.run(
        [sys.executable, "-c", _CALIBRATE],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1]) * 1e3


def percentile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3


def end_to_end_metrics(workload, segment, setups) -> dict:
    lat = segment.latencies
    beyond = len(lat) * (100 - workload.tail_percentile) / 100
    ladder = " ".join(f"p{q:g}={percentile_ms(lat, q):.3f}" for q in (90, 99, 99.9))
    print(f"{len(lat)} latency samples, {beyond:.0f} beyond p{workload.tail_percentile}; "
          f"{segment.sessions} sessions; {ladder} ms", file=sys.stderr)
    if beyond < 10:
        print("warning: fewer than 10 samples beyond the tail percentile", file=sys.stderr)
    return {
        "throughput_per_s": segment.throughput,
        "latency_p50_ms": percentile_ms(lat, 50),
        "latency_tail_ms": percentile_ms(lat, workload.tail_percentile),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (segment.attempted - segment.failed) / segment.attempted,
    }


def stop_children() -> None:
    """Stop and reap every process this run started.

    The shared-memory backend's workers are joined when its service
    closes; this catches any left by a failed session, then stops the
    multiprocessing resource tracker, which would otherwise outlive
    this process for a moment and be left unreaped.
    """
    from multiprocessing import resource_tracker

    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no library sources at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from spotbench.workloads import WORKLOADS, Segment, measure_setup, run_segment

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    calibration = [calibrate()]
    workload = WORKLOADS[args.workload](args.seed, os.path.join(ROOT, ".bench_cache"))
    if args.trace == 0:
        setups = [measure_setup(workload, rep) for rep in range(workload.setup_reps)]
        segment = run_segment(workload, args.seconds)
        values = end_to_end_metrics(workload, segment, setups + segment.setups)
        units = dict(END_TO_END)
        attempted, failed = segment.attempted, segment.failed
    else:
        from spotbench.layers import PER_LAYER, install, per_layer_metrics
        from spotbench.spans import SpanRecorder

        measure_setup(workload)  # warm both halves alike
        untraced, traced = Segment(), Segment()
        recorder = SpanRecorder()
        # Two untraced/traced rounds, so host drift hits both halves alike.
        for _ in range(2):
            run_segment(workload, args.seconds / 4, segment=untraced)
            install(recorder)
            try:
                run_segment(workload, args.seconds / 4, recorder, traced)
            finally:
                recorder.unpatch_all()
        out_dir = os.path.join(ROOT, ".bench_out")
        path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        print(f"wrote {recorder.write(path)} spans to {path}", file=sys.stderr)
        calibration.append(calibrate())
        values = per_layer_metrics(recorder, traced, untraced, statistics.fmean(calibration))
        units = dict(PER_LAYER)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    if args.trace == 0:
        calibration.append(calibrate())
    print(f"host.calibration_ms before={calibration[0]:.3f} after={calibration[1]:.3f}",
          file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
