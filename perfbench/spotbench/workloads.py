"""The three workloads: closed loops against the library's public APIs.

Each workload is a sequence of *sessions*.  A session opens the program
objects and serves the first response (its set-up, timed on its own),
runs its ops in the timed region, then checks sampled outputs against an
independent render and closes everything.  A segment runs sessions until
its timed time reaches the budget; sessions always finish, so every
session of a seed does the same work.

``steer-smog``
    The section 5.1 steering loop, one client: each op advances the smog
    simulation and renders the new wind field (2500 bent spots, 8x5
    mesh, 128^2, serial backend), steering a parameter every 3-6 ops.
    One session lasts the whole budget.
``browse-dns``
    The section 5.2 data browser, one client: each session opens a
    fresh :class:`~repro.anim.service.AnimationService` over a 25-frame
    window of the wake database (8000 bent spots, 6x3 mesh, 256^2,
    shared-memory backend with two groups, delta transport on, 4 MiB
    memory tier) and makes 30 play requests of 4 frames.
``serve-zipf``
    Dashboard traffic, two closed-loop client threads: each session
    opens a fresh ``texture_service`` over a 512-frame recorded steering
    history (300 standard spots, 64^2, 4 MiB memory tier) and replays a
    3000-request Zipf trace in-process.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import threading
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from spotbench import inputs

now = time.perf_counter


class NullRecorder:
    """Stands in for :class:`~spotbench.spans.SpanRecorder` when untraced."""

    session = 0

    def set_op(self, op: int) -> None:
        pass

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    @contextmanager
    def paused(self) -> Iterator[None]:
        yield


@dataclass
class Segment:
    """What one segment (a run of whole sessions) measured."""

    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0                 # timed seconds, summed over sessions
    latencies: List[float] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    sessions: int = 0
    anim_sources: Counter = field(default_factory=Counter)
    service_stats: List[dict] = field(default_factory=list)
    predicted_s: List[float] = field(default_factory=list)
    minor_faults: int = 0                # of this process, in timed regions
    sys_s: float = 0.0                   # kernel CPU time of this process, likewise
    _usage: Optional[resource.struct_rusage] = None

    def begin(self) -> float:
        """Open a timed region; returns its start time."""
        self._usage = resource.getrusage(resource.RUSAGE_SELF)
        return now()

    def end(self, start: float) -> None:
        """Close the timed region opened at *start*."""
        self.elapsed += now() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.minor_faults += usage.ru_minflt - self._usage.ru_minflt
        self.sys_s += usage.ru_stime - self._usage.ru_stime

    @property
    def throughput(self) -> float:
        return (self.attempted - self.failed) / self.elapsed if self.elapsed else 0.0


def _failed_op() -> None:
    """Report the exception of a failed op on standard error."""
    traceback.print_exc(file=sys.stderr)


def _bytes_digest(*arrays: Optional[np.ndarray]) -> str:
    h = hashlib.sha256()
    for array in arrays:
        if array is not None:
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


# -- steer-smog ----------------------------------------------------------------------
class SteerSmog:
    """Steering the smog simulation while watching it (section 5.1)."""

    name = "steer-smog"
    #: p90: a 30 s run makes about 120 frames, so 12 lie beyond it.
    tail_percentile = 90
    #: Set-ups timed before the timed segment; each session adds one more.
    setup_reps = 5

    def __init__(self, seed: int, cache_dir: str):
        from repro import SpotNoiseConfig
        from repro.core.config import BentConfig

        self.seed = seed
        self.schedule = inputs.steering_schedule(seed)
        # The atmospheric/4 shape of benchmarks/test_real_throughput.py.
        self.config = SpotNoiseConfig(
            n_spots=2500,
            texture_size=128,
            spot_mode="bent",
            bent=BentConfig(n_along=8, n_across=5, length_cells=4.0, width_cells=1.2),
            backend="serial",
            seed=seed,
        )

    def setup(self):
        """Open the application and the pipeline; serve the first frame."""
        from repro.apps.smog.steering import SteeredSmogApplication
        from repro.core.pipeline import SpotNoisePipeline

        app = SteeredSmogApplication(seed=self.seed)
        wind, pollutant = app.advance()
        pipe = SpotNoisePipeline(self.config, wind)
        pipe.step(wind, scalar=pollutant)
        return app, pipe

    def cold_setup(self, rep: int):
        """The set-up :func:`measure_setup` times; every repetition alike."""
        return self.setup()

    @staticmethod
    def close(state) -> None:
        state[1].close()

    def session(self, index: int, budget: float, rec, segment: Segment) -> None:
        with rec.paused():
            t0 = now()
            app, pipe = state = self.setup()
            segment.setups.append(now() - t0)
        digests: List[Optional[str]] = []
        try:
            start = segment.begin()
            op = 0
            while now() - start < budget:
                rec.set_op(op)
                t0 = now()
                try:
                    with rec.span("op"):
                        if op in self.schedule:
                            app.steer(*self.schedule[op])
                        wind, pollutant = app.advance()
                        frame = pipe.step(wind, scalar=pollutant)
                except Exception:
                    _failed_op()
                    segment.failed += 1
                    digests.append(None)
                else:
                    segment.latencies.append(now() - t0)
                    digests.append(_bytes_digest(frame.display, frame.image))
                op += 1
            segment.end(start)
            segment.attempted += op
        finally:
            self.close(state)
        with rec.paused():
            segment.failed += self.check(index, digests)

    def check(self, index: int, digests: List[Optional[str]]) -> int:
        """Replay the session in a second pipeline; count sampled mismatches.

        Frames between samples only advance the particles
        (``advance_only``), which leaves the same state as a full step.
        """
        if not digests:
            return 0
        rng = np.random.default_rng([self.seed, 3, index])
        n = len(digests)
        sample = set(int(i) for i in rng.choice(n, size=min(3, n), replace=False))
        sample.add(n - 1)
        app, pipe = state = self.setup()
        mismatches = 0
        try:
            for op in range(max(sample) + 1):
                if op in self.schedule:
                    app.steer(*self.schedule[op])
                wind, pollutant = app.advance()
                if op in sample:
                    frame = pipe.step(wind, scalar=pollutant)
                    if digests[op] is not None:
                        mismatches += digests[op] != _bytes_digest(frame.display, frame.image)
                else:
                    pipe.advance_only(wind)
        finally:
            self.close(state)
        return mismatches


# -- browse-dns ----------------------------------------------------------------------
class BrowseDNS:
    """Playing through the wake database with the data browser (section 5.2)."""

    name = "browse-dns"
    #: p90: a 30 s run makes about 150 play requests, so 15 lie beyond it.
    #: Seven of each session's 30 plays start with a render, so p90 sits
    #: among the render-started plays and p50 among the decoded ones.
    tail_percentile = 90
    setup_reps = 5
    memory_budget = 4 << 20   # 8 textures of a 25-frame window

    def __init__(self, seed: int, cache_dir: str):
        from repro import SpotNoiseConfig
        from repro.core.config import BentConfig

        self.seed = seed
        self.store = inputs.dns_database(cache_dir)
        self.plans = inputs.play_plans(seed, 64, len(self.store))
        # The examples/turbulence_browser.py shape.
        self.config = SpotNoiseConfig(
            n_spots=8000,
            texture_size=256,
            spot_mode="bent",
            bent=BentConfig(n_along=6, n_across=3, length_cells=3.0, width_cells=0.8),
            backend="sharedmem",
            n_groups=2,
            seed=seed,
        )

    def source(self, plan: inputs.BrowseSession):
        store, offset = self.store, plan.offset
        return lambda t: store.read(offset + t)

    def setup(self, plan: Optional[inputs.BrowseSession] = None):
        """Open an animation service on a window; serve its frame 0."""
        from repro.anim.service import AnimationService

        plan = plan or self.plans[0]
        service = AnimationService(
            self.source(plan),
            self.config,
            length=inputs.WINDOW,
            delta_every=0,
            memory_budget_bytes=self.memory_budget,
        )
        try:
            service.request(0)
        except BaseException:
            service.close()
            raise
        return service

    def cold_setup(self, rep: int):
        """The set-up :func:`measure_setup` times; every repetition alike."""
        return self.setup()

    @staticmethod
    def close(service) -> None:
        service.close()

    def session(self, index: int, budget: float, rec, segment: Segment) -> None:
        plan = self.plans[index % len(self.plans)]
        with rec.paused():
            t0 = now()
            service = self.setup(plan)
            segment.setups.append(now() - t0)
        kept: Dict[int, List[np.ndarray]] = {f: [] for f in plan.checks}
        try:
            start = segment.begin()
            for op, (_, first, stop) in enumerate(plan.plays):
                rec.set_op(op)
                t0 = now()
                try:
                    with rec.span("op"):
                        frames = service.stream(first, stop)
                        responses = [next(frames)]
                        latency = now() - t0
                        responses.extend(frames)
                except Exception:
                    _failed_op()
                    segment.failed += stop - first
                else:
                    segment.latencies.append(latency)
                    for response in responses:
                        segment.anim_sources[response.source] += 1
                        if response.frame in kept:
                            kept[response.frame].append(response.texture)
                segment.attempted += stop - first
            segment.end(start)
            with rec.paused():
                segment.failed += self.check(service, plan, kept)
        finally:
            self.close(service)

    def check(self, service, plan, kept: Dict[int, List[np.ndarray]]) -> int:
        """Compare every delivered copy of the sampled frames with a
        one-shot render on the service's own runtime (same plan, so the
        blend order matches)."""
        from repro.anim.incremental import one_shot_frame

        mismatches = 0
        for frame, copies in kept.items():
            if not copies:
                continue
            reference = one_shot_frame(
                service.config, self.source(plan), frame,
                dt=service.dt, policy=service.policy, runtime=service.runtime,
            ).display
            mismatches += sum(not np.array_equal(c, reference) for c in copies)
        return mismatches


# -- serve-zipf ----------------------------------------------------------------------
class ServeZipf:
    """Dashboards re-requesting frames of a steering session."""

    name = "serve-zipf"
    #: p90, which lies among the misses (a quarter of the requests).  The
    #: p99.9 of a 30 s run (15000 requests, 15 beyond) was too fragile:
    #: two slow host episodes in ten runs spread it by 0.44 of its median.
    tail_percentile = 90
    #: A set-up takes 5-15 ms here, so many more are timed.
    setup_reps = 25
    history = 512
    requests_per_session = 3000
    clients = 2
    memory_budget = 4 << 20   # 128 of the 512 history textures

    def __init__(self, seed: int, cache_dir: str):
        from repro import SpotNoiseConfig

        self.seed = seed
        self.app = inputs.smog_history(seed, self.history)
        self.traces = inputs.zipf_sessions(seed, 64, self.requests_per_session, self.history)
        self.config = SpotNoiseConfig(n_spots=300, texture_size=64, backend="serial", seed=seed)

    def setup(self, first_frame: Optional[int] = None):
        """Open a texture service over the history; serve a first miss."""
        service = self.app.texture_service(
            self.config, memory_budget_bytes=self.memory_budget, n_workers=self.clients
        )
        try:
            service.request(self.traces[0][0] if first_frame is None else first_frame)
        except BaseException:
            service.close()
            raise
        return service

    def cold_setup(self, rep: int):
        """The set-up :func:`measure_setup` times.  A frame's render cost
        varies about 2x along the history (4-14 ms), so repetitions serve
        their first miss at evenly spaced frames, not at the seed's first
        request."""
        return self.setup((2 * rep + 1) * self.history // (2 * self.setup_reps))

    @staticmethod
    def close(service) -> None:
        service.close()

    def session(self, index: int, budget: float, rec, segment: Segment) -> None:
        trace = self.traces[index % len(self.traces)]
        rng = np.random.default_rng([self.seed, 4, index])
        checked = set(int(f) for f in rng.choice(sorted(set(trace)), size=6, replace=False))
        with rec.paused():
            t0 = now()
            service = self.setup(trace[0])
            segment.setups.append(now() - t0)
        lock = threading.Lock()
        cursor = iter(range(len(trace)))
        latencies: List[float] = []
        predicted: List[float] = []
        failed = [0]
        served: Dict[int, tuple] = {}  # id(texture) -> (frame, texture, count)

        def client() -> None:
            while True:
                with lock:
                    op = next(cursor, None)
                if op is None:
                    return
                frame = trace[op]
                rec.set_op(op)
                t0 = now()
                try:
                    with rec.span("op"):
                        response = service.request(frame)
                except Exception:
                    _failed_op()
                    with lock:
                        failed[0] += 1
                    continue
                latency = now() - t0
                with lock:
                    latencies.append(latency)
                    if response.source == "render":
                        predicted.append(response.predicted_s)
                    if frame in checked:
                        texture = response.texture
                        count = served.get(id(texture), (frame, texture, 0))[2]
                        served[id(texture)] = (frame, texture, count + 1)

        try:
            start = segment.begin()
            threads = [threading.Thread(target=client) for _ in range(self.clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            segment.end(start)
            segment.attempted += len(trace)
            segment.failed += failed[0]
            segment.latencies.extend(latencies)
            segment.predicted_s.extend(predicted)
            segment.service_stats.append(service.stats.snapshot())
            with rec.paused():
                segment.failed += self.check(service, served)
        finally:
            self.close(service)

    def check(self, service, served: Dict[int, tuple]) -> int:
        """Compare each distinct served texture of the sampled frames with
        a fresh ``FrameRenderer`` render; a mismatch fails every request
        that received it."""
        from repro.service.server import FrameRenderer

        renderer = FrameRenderer(service.config)
        try:
            fresh = {}
            mismatches = 0
            for frame, texture, count in served.values():
                if frame not in fresh:
                    fresh[frame] = renderer.render(self.app.read_history(frame))
                if not np.array_equal(texture, fresh[frame]):
                    mismatches += count
            return mismatches
        finally:
            renderer.close()


WORKLOADS = {w.name: w for w in (SteerSmog, BrowseDNS, ServeZipf)}


def run_segment(workload, budget: float, rec=None, segment: Optional[Segment] = None) -> Segment:
    """Run whole sessions until they add *budget* timed seconds.

    Sessions are numbered on from *segment*'s last one, so a segment
    continued in several pieces never repeats a session.
    """
    rec = rec or NullRecorder()
    segment = segment or Segment()
    end = segment.elapsed + budget
    while segment.elapsed < end:
        rec.session = segment.sessions
        workload.session(segment.sessions, end - segment.elapsed, rec, segment)
        segment.sessions += 1
    return segment


def measure_setup(workload, rep: int = 0) -> float:
    """Seconds to open the workload's program objects and serve a first
    response (inputs are already generated); *rep* numbers the repetition."""
    t0 = now()
    state = workload.cold_setup(rep)
    elapsed = now() - t0
    workload.close(state)
    return elapsed
