"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the program from outside (it replaces
module or class attributes and puts them back afterwards), so the program's
own files stay unchanged.  Each wrapped call records a span: layer name,
start and end on the monotonic nanosecond clock, thread, parent span, an
optional request id, and counts computed from the call's public arguments.
Spans are kept in a list and written out when the run ends.

Self time is wall-clock share: inside a timed phase, every instant is
charged to the spans that are active and have no active child, split evenly
when several threads run at once; an instant where only the phase itself is
active is unattributed.  Layer self times plus the unattributed remainder
therefore add up to the phase's wall time exactly.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

PHASE = "phase"


@dataclass
class Span:
    layer: str
    start: int
    end: int
    thread: int
    parent: int | None
    rid: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from wrapped entry points until :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phases: list[tuple[str, int]] = []  # (phase name, span index)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, rid: str | None = None) -> int:
        stack = self._stack()
        span = Span(
            layer,
            time.perf_counter_ns(),
            0,
            threading.get_ident(),
            stack[-1] if stack else None,
            rid,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack().pop()

    def current_layer(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]].layer if stack else None

    @contextmanager
    def phase(self, name: str):
        """A timed phase of the workload; attribution is made per phase."""
        index = self._open(PHASE)
        self.phases.append((name, index))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner: object, attr: str, layer: str, counts=None, rid=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``counts(args, kwargs, result, span)`` returns the span's counts;
        ``rid(args, kwargs)`` its request id.  A call made while the same
        layer is already open on this thread belongs to the open span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.current_layer() == layer:
                return original(*args, **kwargs)
            index = tracer._open(layer, None if rid is None else rid(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if counts is not None:
                span = tracer.spans[index]
                span.counts = counts(args, kwargs, result, span)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis
    def _resolved_parents(self, phase_index: int, members: list[int]) -> dict[int, int]:
        """Parent of each member span; roots on other threads are hung under
        the innermost span of the phase's thread that contains them."""
        phase = self.spans[phase_index]
        home = [
            i for i in members if self.spans[i].thread == phase.thread
        ] + [phase_index]
        parents = {}
        for i in members:
            span = self.spans[i]
            if span.parent is not None:
                parents[i] = span.parent
                continue
            best, best_len = phase_index, phase.end - phase.start
            for j in home:
                other = self.spans[j]
                if other.start <= span.start and span.end <= other.end:
                    length = other.end - other.start
                    if length < best_len:
                        best, best_len = j, length
            parents[i] = best
        return parents

    def attribute(self, phase_index: int) -> tuple[dict[str, float], float, float]:
        """Wall-share self seconds per layer, unattributed seconds, wall seconds."""
        phase = self.spans[phase_index]
        members = self._members(phase_index)
        parents = self._resolved_parents(phase_index, members)
        events = []
        for i in members:
            events.append((self.spans[i].start, 1, i))
            events.append((self.spans[i].end, 0, i))
        events.sort()
        active_children: dict[int, int] = defaultdict(int)
        leaves: set[int] = set()
        shares: dict[str, float] = defaultdict(float)
        unattributed = 0
        last = phase.start
        for t, kind, i in events:
            dt = t - last
            if dt > 0:
                if leaves:
                    each = dt / len(leaves)
                    for leaf in leaves:
                        shares[self.spans[leaf].layer] += each
                else:
                    unattributed += dt
            last = t
            parent = parents[i]
            if kind == 1:
                if active_children[i] == 0:
                    leaves.add(i)
                active_children[parent] += 1
                leaves.discard(parent)
            else:
                leaves.discard(i)
                active_children[parent] -= 1
                if (
                    active_children[parent] == 0
                    and parent != phase_index
                    and self.spans[parent].end > t
                ):
                    leaves.add(parent)
        unattributed += phase.end - last
        wall = phase.end - phase.start
        return (
            {k: v / 1e9 for k, v in shares.items()},
            unattributed / 1e9,
            wall / 1e9,
        )

    def _members(self, phase_index: int) -> list[int]:
        """Indices of the closed spans that lie inside a phase."""
        phase = self.spans[phase_index]
        return [
            i
            for i, s in enumerate(self.spans)
            if i != phase_index and s.end and phase.start <= s.start and s.end <= phase.end
        ]

    def phase_spans(self, phase_index: int) -> list[Span]:
        return [self.spans[i] for i in self._members(phase_index)]

    # --------------------------------------------------------------- export
    def chrome_trace(self) -> dict:
        """Spans as Chrome trace-event JSON (Perfetto opens it)."""
        base = min((s.start for s in self.spans), default=0)
        names = {index: name for name, index in self.phases}
        events = []
        for i, s in enumerate(self.spans):
            if not s.end:
                continue
            args = dict(s.counts)
            if s.rid is not None:
                args["rid"] = s.rid
            events.append(
                {
                    "name": names.get(i, s.layer),
                    "cat": s.layer,
                    "ph": "X",
                    "ts": (s.start - base) / 1e3,
                    "dur": (s.end - s.start) / 1e3,
                    "pid": 1,
                    "tid": s.thread,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
