"""Outside-in span recorder for the traced benchmark run.

The library has no spans of its own yet, so the traced run installs
wrappers around the public functions of each layer (see
:mod:`spotbench.layers`).  Every wrapped call records one span: its name,
start, end, parent (the enclosing span on the same thread) and the op
index the benchmark was executing when the call began.  Spans stay in
memory and are written out once, when the run ends.

A layer's self time is its span's duration minus the time its direct
children on the same thread cover.  Work handed to another thread (a
render submitted to the serving pool, an animation walk) is recorded on
that thread as a root span carrying the submitting op's index.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: One recorded span: (name, start_s, end_s, parent_index, op_index).
Span = Tuple[str, float, float, int, int]


class SpanRecorder:
    """Thread-aware in-memory span store.

    Spans are appended to per-thread lists, so recording takes no lock
    on the hot path; the lock only guards registering a new thread.
    Wrappers installed in a process forked from this one (the
    shared-memory render workers) pass straight through: their spans
    could never reach this process anyway.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: One span list per thread that recorded anything, in start order
        #: (a list, not a dict by thread id: the OS reuses ids).
        self._threads: List[List[Span]] = []
        #: name -> list of (op_index, session, value) counter events.
        self.events: Dict[str, List[Tuple[int, int, float]]] = defaultdict(list)
        #: The benchmark session currently running (sessions are sequential).
        self.session = 0
        self._patches: List[Tuple[object, str, object]] = []
        #: Wrappers record only while enabled (set-up and output checks
        #: run with recording paused).
        self.enabled = True

    # -- per-thread state ----------------------------------------------------------
    def _tls(self):
        tls = self._local
        if not hasattr(tls, "spans"):
            tls.spans = []
            tls.stack = []
            tls.op = -1
            with self._lock:
                self._threads.append(tls.spans)
        return tls

    def set_op(self, op: int) -> None:
        """Mark the op the calling thread is now executing."""
        self._tls().op = op

    def current_op(self) -> int:
        return self._tls().op

    # -- recording ---------------------------------------------------------------
    def begin(self, name: str) -> Tuple[object, int]:
        tls = self._tls()
        parent = tls.stack[-1] if tls.stack else -1
        index = len(tls.spans)
        tls.stack.append(index)
        # An end time of 0.0 marks the span as still open.
        tls.spans.append((name, time.perf_counter(), 0.0, parent, tls.op))
        return tls, index

    def end(self, handle: Tuple[object, int], name: Optional[str] = None) -> None:
        end = time.perf_counter()
        tls, index = handle
        tls.stack.pop()
        old_name, start, _, parent, op = tls.spans[index]
        tls.spans[index] = (name or old_name, start, end, parent, op)

    def event(self, name: str, value: float) -> None:
        """Record a counter value at the current op (e.g. quads per frame)."""
        self.events[name].append((self.current_op(), self.session, float(value)))

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run a block without recording spans or counters."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block."""
        handle = self.begin(name)
        try:
            yield
        finally:
            self.end(handle)

    # -- wrapping ----------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        select: Optional[Callable[[tuple], bool]] = None,
        rename: Optional[Callable[[object], str]] = None,
        on_result: Optional[Callable[["SpanRecorder", object], None]] = None,
        carry_op: bool = False,
    ) -> Callable:
        """Return *fn* wrapped so each call records a span called *name*.

        *select* filters calls by their positional arguments (calls it
        rejects record nothing); *rename* names the span from the call's
        result; *on_result* records counters from the result; with
        *carry_op* the call's callable argument (a render handed to the
        serving pool) runs under the submitting thread's op index.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            if (
                not recorder.enabled
                or os.getpid() != recorder.pid
                or (select is not None and not select(args))
            ):
                return fn(*args, **kwargs)
            if carry_op:
                args = _carry(recorder, args)
            handle = recorder.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(handle, rename(result) if rename and result is not None else None)
            if on_result is not None:
                on_result(recorder, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def patch(self, target: str, attribute: str, **wrap_kwargs) -> None:
        """Replace ``target.attribute`` with a recording wrapper.

        *target* is ``"module"`` or ``"module:Class"``; the original is
        restored by :meth:`unpatch_all`.
        """
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attribute] if class_name else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, **wrap_kwargs))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reading -----------------------------------------------------------------
    def threads(self) -> List[List[Span]]:
        """A copy of every thread's spans (open ones have end 0.0)."""
        with self._lock:
            return [list(spans) for spans in self._threads]

    def self_times(self) -> Dict[str, List[float]]:
        """Self time of every finished span, grouped by span name."""
        out: Dict[str, List[float]] = defaultdict(list)
        for spans in self.threads():
            for name, duration in _self_times(spans):
                out[name].append(duration)
        return out

    def durations(self) -> Dict[str, List[float]]:
        """Whole-call duration of every finished span, grouped by name."""
        out: Dict[str, List[float]] = defaultdict(list)
        for spans in self.threads():
            for name, start, end, _, _ in spans:
                if end:
                    out[name].append(end - start)
        return out

    def root_time_per_thread(self) -> List[float]:
        """Summed duration of each thread's finished root spans."""
        return [
            sum(end - start for _, start, end, parent, _ in spans if parent < 0 and end)
            for spans in self.threads()
        ]

    def write(self, path: str) -> int:
        """Write every span as one JSON line; returns the number written."""
        count = 0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for thread, spans in enumerate(self.threads()):
                for index, (name, start, end, parent, op) in enumerate(spans):
                    if not end:
                        continue
                    fh.write(json.dumps({
                        "thread": thread, "id": index, "name": name, "start": start,
                        "end": end, "parent": parent, "op": op,
                    }) + "\n")
                    count += 1
        return count


def _self_times(spans: List[Span]) -> Iterable[Tuple[str, float]]:
    """(name, self time) of one thread's finished spans."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and end:
            children[parent] += end - start
    for index, (name, start, end, _, _) in enumerate(spans):
        if end:
            yield name, (end - start) - children[index]


def _carry(recorder: SpanRecorder, args: tuple) -> tuple:
    """Rewrite the last callable argument to run under the caller's op."""
    op = recorder.current_op()
    for position in range(len(args) - 1, -1, -1):
        fn = args[position]
        if callable(fn):
            def carried(*a, _fn=fn, **kw):
                recorder.set_op(op)
                return _fn(*a, **kw)

            return args[:position] + (carried,) + args[position + 1:]
    return args
