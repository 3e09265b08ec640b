"""Which library calls the traced run wraps, and the per-layer metrics.

Each entry of :data:`PATCHES` names one public function of one layer and
the span it records.  :func:`per_layer_metrics` turns the recorded spans
(plus the counters the workloads keep from their own responses) into the
``per_layer`` metrics of ``BENCHMARK.json``.

Times are medians per call, in milliseconds, of the span's *self* time —
except ``service.hit_ms``, ``service.miss_ms`` and ``service.render_ms``,
which are whole-call times: ``service.overhead_ms`` is defined as the
difference between a miss and the render inside it.  A layer the
workload never calls reports 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from repro.glsim.commands import DrawQuads
from spotbench.spans import SpanRecorder
from spotbench.workloads import Segment

#: (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("raster.draw_ms", "ms"),
    ("spots.geometry_ms", "ms"),
    ("raster.quads", "count/frame"),
    ("parallel.synthesize_ms", "ms"),
    ("parallel.run_frame_ms", "ms"),
    ("parallel.blend_ms", "ms"),
    ("advection.advect_ms", "ms"),
    ("core.render_ms", "ms"),
    ("apps.smog.advance_ms", "ms"),
    ("apps.dns.read_ms", "ms"),
    ("apps.dns.reads", "count/session"),
    ("anim.advance_ms", "ms"),
    ("anim.render_next_ms", "ms"),
    ("anim.restores", "count/session"),
    ("anim.chain_ms", "ms"),
    ("anim.delta_decode_ms", "ms"),
    ("anim.delta_encode_ms", "ms"),
    ("anim.renders", "count/session"),
    ("anim.useful_render_ratio", "ratio"),
    ("anim.source_share.memory", "ratio"),
    ("anim.source_share.delta", "ratio"),
    ("anim.source_share.stream", "ratio"),
    ("anim.source_share.coalesced", "ratio"),
    ("service.hit_ms", "ms"),
    ("service.miss_ms", "ms"),
    ("service.render_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("runtime.submit_ms", "ms"),
    ("runtime.wait_ms", "ms"),
    ("service.cache_get_ms", "ms"),
    ("service.cache_put_ms", "ms"),
    ("service.digest_ms", "ms"),
    ("service.hit_ratio", "ratio"),
    ("service.renders", "count/session"),
    ("service.coalesced", "count/session"),
    ("process.minor_faults", "count/op"),
    ("process.sys_ms", "ms/op"),
    ("machine.predict_ratio", "ratio"),
    ("host.calibration_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]

#: Self-time metrics: metric name -> span name.
SELF_TIME = {
    "raster.draw_ms": "raster.draw",
    "spots.geometry_ms": "spots.geometry",
    "parallel.synthesize_ms": "parallel.synthesize",
    "parallel.run_frame_ms": "parallel.run_frame",
    "parallel.blend_ms": "parallel.blend",
    "advection.advect_ms": "advection.advect",
    "core.render_ms": "core.render",
    "apps.smog.advance_ms": "apps.smog.advance",
    "apps.dns.read_ms": "apps.dns.read",
    "anim.advance_ms": "anim.advance",
    "anim.render_next_ms": "anim.render_next",
    "anim.chain_ms": "anim.chain",
    "anim.delta_decode_ms": "anim.delta_decode",
    "anim.delta_encode_ms": "anim.delta_encode",
    "runtime.submit_ms": "runtime.submit",
    "runtime.wait_ms": "runtime.wait",
    "service.cache_get_ms": "service.cache_get",
    "service.cache_put_ms": "service.cache_put",
    "service.digest_ms": "service.digest",
}

#: Whole-call metrics: metric name -> span name.
WHOLE_CALL = {
    "service.hit_ms": "service.hit",
    "service.miss_ms": "service.miss",
    "service.render_ms": "service.render",
}

_HIT_SOURCES = ("memory", "disk")


def _is_draw(args: tuple) -> bool:
    return isinstance(args[1], DrawQuads)


def _moves(args: tuple) -> bool:
    # IncrementalAnimator.advance_to(frame) is a no-op when the animator
    # already sits at *frame*; only real fast-forwards are layer work.
    return args[1] > args[0].position


def _record_quads(recorder: SpanRecorder, result) -> None:
    recorder.event("raster.quads", result[1].counters.quads_drawn)


def _record_render(recorder: SpanRecorder, result) -> None:
    recorder.event("anim.rendered_frame", result.frame_index)


def _request_span(response) -> str:
    return "service.hit" if response.source in _HIT_SOURCES else "service.miss"


#: (target, attribute, wrap options) of every wrapped call.
PATCHES = [
    ("repro.glsim.pipe:GraphicsPipe", "execute", dict(name="raster.draw", select=_is_draw)),
    ("repro.parallel.groups", "build_spot_geometry", dict(name="spots.geometry")),
    ("repro.parallel.runtime:DivideAndConquerRuntime", "synthesize",
     dict(name="parallel.synthesize", on_result=_record_quads)),
    ("repro.parallel.backends:ExecutionBackend", "run_frame", dict(name="parallel.run_frame")),
    ("repro.parallel.sharedmem:SharedMemoryBackend", "run_frame",
     dict(name="parallel.run_frame")),
    # The runtime imports compose_add by name, so the runtime's binding
    # is the one its calls go through.
    ("repro.parallel.runtime", "compose_add", dict(name="parallel.blend")),
    ("repro.core.pipeline:SpotNoisePipeline", "advect", dict(name="advection.advect")),
    ("repro.core.pipeline:SpotNoisePipeline", "render", dict(name="core.render")),
    ("repro.apps.smog.steering:SteeredSmogApplication", "advance",
     dict(name="apps.smog.advance")),
    ("repro.apps.dns.store:ChunkedFieldStore", "read", dict(name="apps.dns.read")),
    ("repro.anim.incremental:IncrementalAnimator", "advance_to",
     dict(name="anim.advance", select=_moves)),
    ("repro.anim.incremental:IncrementalAnimator", "render_next",
     dict(name="anim.render_next", on_result=_record_render)),
    ("repro.anim.incremental:IncrementalAnimator", "restore", dict(name="anim.restore")),
    ("repro.anim.sequence:FrameSequence", "frame_digest", dict(name="anim.chain")),
    ("repro.anim.delta:DeltaEncoder", "decode", dict(name="anim.delta_decode")),
    ("repro.anim.delta:DeltaEncoder", "add_frame", dict(name="anim.delta_encode")),
    ("repro.service.server:TextureService", "request",
     dict(name="service.request", rename=_request_span)),
    ("repro.service.server:FrameRenderer", "render", dict(name="service.render")),
    ("repro.service.scheduler:RequestScheduler", "submit",
     dict(name="runtime.submit", carry_op=True)),
    ("repro.service.scheduler:RenderTicket", "wait", dict(name="runtime.wait")),
    ("repro.service.cache:TieredTextureCache", "get", dict(name="service.cache_get")),
    ("repro.service.cache:TieredTextureCache", "put", dict(name="service.cache_put")),
    # As the server calls it: server.py imports field_digest by name.
    ("repro.service.server", "field_digest", dict(name="service.digest")),
]


def install(recorder: SpanRecorder) -> None:
    """Wrap every call in :data:`PATCHES` (undo with ``unpatch_all``)."""
    for target, attribute, options in PATCHES:
        recorder.patch(target, attribute, **options)


def _median_ms(values: Sequence[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def per_layer_metrics(
    recorder: SpanRecorder,
    traced: Segment,
    untraced: Segment,
    calibration_ms: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    *traced* and *untraced* are the segments of the traced half and the
    untraced half of the run; their throughput ratio is the tracing
    overhead.
    """
    self_times = recorder.self_times()
    durations = recorder.durations()
    sessions = max(1, traced.sessions)
    out: Dict[str, float] = {}
    for metric, span in SELF_TIME.items():
        out[metric] = _median_ms(self_times.get(span, []))
    for metric, span in WHOLE_CALL.items():
        out[metric] = _median_ms(durations.get(span, []))
    miss, render = out["service.miss_ms"], out["service.render_ms"]
    out["service.overhead_ms"] = miss - render if miss and render else 0.0

    quads = [value for _, _, value in recorder.events.get("raster.quads", [])]
    out["raster.quads"] = statistics.median(quads) if quads else 0.0
    out["apps.dns.reads"] = len(self_times.get("apps.dns.read", [])) / sessions
    out["anim.restores"] = len(self_times.get("anim.restore", [])) / sessions
    rendered = recorder.events.get("anim.rendered_frame", [])
    out["anim.renders"] = len(rendered) / sessions
    distinct = {(session, frame) for _, session, frame in rendered}
    out["anim.useful_render_ratio"] = len(distinct) / len(rendered) if rendered else 0.0

    sources = traced.anim_sources
    delivered = sum(sources.values())
    for source in ("memory", "delta", "stream", "coalesced"):
        out[f"anim.source_share.{source}"] = sources.get(source, 0) / delivered if delivered else 0.0

    snapshots: List[dict] = traced.service_stats
    if snapshots:
        out["service.hit_ratio"] = statistics.fmean(s["hit_rate"] for s in snapshots)
        out["service.renders"] = statistics.fmean(s["renders"] for s in snapshots)
        out["service.coalesced"] = statistics.fmean(
            s["by_source"].get("coalesced", 0) for s in snapshots
        )
    else:
        out["service.hit_ratio"] = out["service.renders"] = out["service.coalesced"] = 0.0
    predicted = traced.predicted_s
    out["machine.predict_ratio"] = (
        statistics.median(predicted) * 1e3 / render if predicted and render else 0.0
    )
    ops = max(1, traced.attempted)
    out["process.minor_faults"] = traced.minor_faults / ops
    out["process.sys_ms"] = traced.sys_s * 1e3 / ops
    out["host.calibration_ms"] = calibration_ms
    out["trace.overhead_ratio"] = traced.throughput / untraced.throughput
    return {name: out[name] for name, _ in PER_LAYER}
