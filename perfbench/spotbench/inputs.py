"""Seeded input generators for the three workloads.

Everything a workload feeds the library is made here, from the run's
``--seed``, before any timed region or set-up measurement starts:

* :func:`steering_schedule` — when the steering client changes which
  parameter, and to what (``steer-smog``);
* :func:`smog_history` — a recorded steering session whose wind history
  the dashboards request (``serve-zipf``);
* :func:`zipf_sessions` — the dashboard request trace (``serve-zipf``);
* :func:`play_plans` — the browsing sessions: which database window,
  which plays, which frames to check (``browse-dns``);
* :func:`dns_database` — the wake database the browser plays through.

The same seed always gives the same inputs (the tests check this).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Steerable parameters of the smog application and the ranges the
#: benchmark's steering client draws from (inside the registered bounds).
STEER_RANGES = {
    "emission_scale": (0.5, 3.0),
    "base_wind": (0.5, 2.0),
    "wind_direction": (-1.0, 1.0),
    "deposition_boost": (0.5, 2.0),
}


def steering_schedule(seed: int, n_frames: int = 20000) -> Dict[int, Tuple[str, float]]:
    """``op index -> (parameter, value)``: a steer every 3 to 6 frames."""
    rng = np.random.default_rng([seed, 1])
    names = sorted(STEER_RANGES)
    schedule: Dict[int, Tuple[str, float]] = {}
    frame = int(rng.integers(3, 7))
    while frame < n_frames:
        name = names[int(rng.integers(len(names)))]
        low, high = STEER_RANGES[name]
        schedule[frame] = (name, float(rng.uniform(low, high)))
        frame += int(rng.integers(3, 7))
    return schedule


def smog_history(seed: int, n_frames: int):
    """A steered smog session advanced *n_frames* steps.

    Returns the :class:`~repro.apps.smog.steering.SteeredSmogApplication`;
    its recorded wind history (``read_history``) is what the dashboard
    traffic of ``serve-zipf`` requests.
    """
    from repro.apps.smog.steering import SteeredSmogApplication

    app = SteeredSmogApplication(seed=seed, history_limit=n_frames)
    schedule = steering_schedule(seed, n_frames)
    for frame in range(n_frames):
        if frame in schedule:
            app.steer(*schedule[frame])
        app.advance()
    return app


def zipf_sessions(
    seed: int, n_sessions: int, requests_per_session: int, n_frames: int
) -> List[List[int]]:
    """One Zipf request trace (exponent 1.1) per dashboard session."""
    from repro.service.trace import zipf_trace

    return [
        zipf_trace(requests_per_session, n_frames, seed=seed * 1000 + session)
        for session in range(n_sessions)
    ]


@dataclass(frozen=True)
class BrowseSession:
    """One browsing session over a window of the database.

    ``plays`` are ``(kind, start, stop)`` ranges of the window; frame 0
    of the window is served at set-up.  ``checks`` are the window frames
    whose every delivered copy is compared with a one-shot render.
    """

    offset: int
    plays: Tuple[Tuple[str, int, int], ...]
    checks: Tuple[int, ...]


#: Every browsing session opens a window of this many database frames.
WINDOW = 25
#: Frames per play request.
FRAMES_PER_PLAY = 4
#: The first plays of every session, fixed so that every session renders
#: the same frames in the same order.  Together they play frames 1-24
#: (frame 0 is served at set-up) and exercise each kind of walk start:
#: continuing the idle walk, seeking forward past unrendered frames
#: (a fast-forward), and stepping back (a checkpoint restore).  The
#: play from 11 runs on into frames 13-14, which are delta-encoded but
#: already evicted from the memory tier, so its walk may render them a
#: second time.
FIRST_PASS = (
    ("continue", 1, 5),
    ("continue", 5, 9),
    ("seek", 13, 17),
    ("continue", 17, 21),
    ("continue", 21, 25),
    ("back", 11, 15),
    ("back", 9, 13),
)
#: Plays per session after the first pass, all over frames it has seen.
REPLAYS = 23


def play_plans(seed: int, n_sessions: int, database_frames: int) -> List[BrowseSession]:
    """Browsing sessions: a fixed first pass, then seeded replays.

    Each session opens a window of :data:`WINDOW` frames at a seeded
    offset and first makes the plays of :data:`FIRST_PASS`, which render
    every frame of the window.  Then come :data:`REPLAYS` plays over
    frames it has already seen: most continue playback (wrapping to the
    window start), some step back one play, some seek.  Every session
    thus renders the same frames whatever the seed; the seed moves the
    window and the replay positions.
    """
    k = FRAMES_PER_PLAY
    rng = np.random.default_rng([seed, 2])
    sessions: List[BrowseSession] = []
    for _ in range(n_sessions):
        offset = int(rng.integers(0, database_frames - WINDOW + 1))
        plays = list(FIRST_PASS)
        start = plays[-1][1]
        for _ in range(REPLAYS):
            draw = rng.random()
            if draw < 0.6:
                kind, start = "continue", start + k
                if start + k > WINDOW:
                    start = 0
            elif draw < 0.8:
                kind, start = "back", max(0, start - k)
            else:
                kind, start = "seek", int(rng.integers(0, WINDOW - k + 1))
            plays.append((kind, start, start + k))
        checks = tuple(sorted(int(f) for f in rng.choice(WINDOW, size=2, replace=False)))
        sessions.append(BrowseSession(offset, tuple(plays), checks))
    return sessions


#: The wake database: the example browser's reduced grid (139x104,
#: Re=150), spun up past shedding onset, one slice every 0.15 time units.
DNS_GRID = (139, 104)
DNS_SPINUP = 12.0
DNS_STEP = 0.15
DNS_FRAMES = 96


def dns_database(
    cache_dir: str,
    n_frames: int = DNS_FRAMES,
    grid: Tuple[int, int] = DNS_GRID,
    spinup: float = DNS_SPINUP,
):
    """The wake database, computed by :class:`DNSSolver` once and reused.

    Spinning the solver up takes about 15 s and each slice about 0.2 s,
    more than a whole benchmark run, so the database is computed once
    per checkout into *cache_dir* and reused by every later run.  It does
    not depend on the seed: the seed picks the windows each session
    browses (:func:`play_plans`).  Returns a read-only
    :class:`~repro.apps.dns.store.ChunkedFieldStore`.
    """
    from repro.apps.dns import ChunkedFieldStore, DNSConfig, DNSSolver
    from repro.fields.grid import RectilinearGrid

    spec = {"grid": list(grid), "spinup": spinup, "step": DNS_STEP, "frames": n_frames}
    name = "dns-{}x{}-{}f-{:g}".format(grid[0], grid[1], n_frames, spinup)
    directory = os.path.join(cache_dir, name)
    marker = os.path.join(directory, "spec.json")
    if os.path.exists(marker):
        with open(marker, encoding="utf-8") as fh:
            if json.load(fh) == spec:
                return ChunkedFieldStore(directory)
    building = directory + ".building"
    shutil.rmtree(building, ignore_errors=True)
    shutil.rmtree(directory, ignore_errors=True)
    solver = DNSSolver(DNSConfig(nx=grid[0], ny=grid[1], reynolds=150))
    solver.advance_to(spinup)
    store = ChunkedFieldStore.create(
        building,
        RectilinearGrid(solver.grid.x_coords(), solver.grid.y_coords()),
        frames_per_chunk=8,
    )
    for _ in range(n_frames):
        solver.advance_to(solver.time + DNS_STEP)
        store.append(solver.field(), time=solver.time)
    store.flush()
    with open(os.path.join(building, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    os.replace(building, directory)
    return ChunkedFieldStore(directory)
