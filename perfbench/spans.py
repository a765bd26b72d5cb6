"""In-memory spans recorded around calls into the package.

The benchmark wraps public functions at the sites where the package calls
them (``unifit.bench.fit``, ``unifit.cli.load_series``, ...) and opens its
own spans around rounds and CLI commands.  Each span keeps its name, start
and end (``time.perf_counter`` seconds), the index of the span that was
open when it started, a trial id shared by the spans of one benchmark trial
or command, and a small dict of JSON-able attributes.  Spans stay in a list
until the run ends and are then written as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# names of the spans the benchmark opens itself or aggregates by
ROUND = "round"
REFERENCE = "reference"
COMMAND = "cli.command"
FIT = "fitting.fit"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Recorder.spans, -1 at the root
    trial: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``patch`` installs wrappers that ``restore`` removes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._trial = 0
        self._patches: list[tuple[object, str, object]] = []
        #: Called by every wrapper before its span starts, when set.
        self.before_call = None

    def new_trial(self) -> None:
        self._trial += 1

    def _start(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(name, time.perf_counter(), float("nan"), parent, self._trial)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the body of a ``with`` block."""
        span = self._start(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._finish(span)

    def wrap(self, fn, name: str, *, describe=None, new_trial: bool = False):
        """Return ``fn`` wrapped to record one span per call.

        ``describe(args, result, exc)`` returns attributes for the span; it
        sees the exception, if the call raised one, before it propagates.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.before_call is not None:
                self.before_call()
            if new_trial:
                self._trial += 1
            span = self._start(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._finish(span)
                if describe is not None:
                    span.attrs.update(describe(args, None, exc))
                raise
            self._finish(span)
            if describe is not None:
                span.attrs.update(describe(args, result, None))
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` by a recording wrapper until ``restore``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **kwargs))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        inside = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(i, ())
            if e > span.start and s < span.end
        ]
        out.append(span.duration - covered(inside))
    return out
