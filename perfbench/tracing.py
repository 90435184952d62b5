"""Span tracing for the benchmark's traced run.

The tracer replaces public functions of the program under the names their
callers look them up by (``drone_assoc.motion.multi_predict`` for the
tracker's ``mo.multi_predict`` call, ``drone_assoc.metrics.iou_matrix`` for
the evaluator's imported name, and so on) with wrappers that record a span
per call: name, start, end and the span that was open when it started. The
benchmark opens its own spans around each frame and each set-up and
evaluation repetition. Spans stay in memory and are written out once, when
the run ends; the originals are restored on exit.

Every span belongs to a phase (``setup``, ``frame`` or ``eval``). Per-layer
figures are normalised to one sequence: set-up spans are divided by the
number of set-up repetitions, frame spans by the number of passes over the
sequence and evaluation spans by the number of evaluation repetitions.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    """Records spans while `phase` is set; an inactive tracer never sets it,
    so its spans and wrappers cost one attribute test."""

    def __init__(self, active: bool) -> None:
        self.active = active
        self.names: set[str] = set()
        # (name, phase, start_ns, end_ns, parent index or -1); an open span
        # holds None until it ends
        self.spans: list = []
        self._stack: list[int] = []
        self.phase: Optional[str] = None
        self.counts: dict = defaultdict(int)
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (name, self.phase, start, end, parent)

    @contextlib.contextmanager
    def span(self, name: str):
        if self.phase is None:
            yield
            return
        self.names.add(name)
        idx, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, parent, name, start)

    def wrap(self, owner, attr: str, name: str,
             counter: Optional[Callable] = None) -> None:
        """Replace owner.attr by a recording wrapper.

        counter(args) runs before the call and returns a function of the
        result that gives the call's {count_key: n}; both run outside the
        span, so their cost shows as the caller's self time.
        """
        fn = getattr(owner, attr)
        self.names.add(name)

        def wrapper(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            finish = counter(args) if counter is not None else None
            idx, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, start)
            if finish is not None:
                for key, n in finish(result).items():
                    self.counts[(self.phase, key)] += n
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,phase,name,start_ns,end_ns\n")
            for i, (name, phase, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{phase},{name},{start},{end}\n")

    def _exclusive(self):
        """Per span: layer, duration and self time (duration minus direct
        children, which never overlap in this single-threaded run), in ns."""
        if any(s is None for s in self.spans):
            raise RuntimeError("trace holds a span that never ended")
        layers = [s[0].split(".", 1)[0] for s in self.spans]
        dur = [s[3] - s[2] for s in self.spans]
        own = list(dur)
        for i, s in enumerate(self.spans):
            if s[4] >= 0:
                own[s[4]] -= dur[i]
        return layers, dur, own

    def summary(self, reps: dict[str, int]) -> dict[str, float]:
        """Seconds per sequence: `<layer>.busy_s` (time any span of the
        layer is open), `<layer>.self_s` (busy time minus child spans of
        other layers), `<span name>_s`, `frame.<layer>.self_s` over the frame
        path alone and `frame.total_s`, the traced frame time."""
        layers, dur, own = self._exclusive()
        out: dict[str, float] = {}
        for name in self.names:
            layer = name.split(".", 1)[0]
            for key in (f"{name}_s", f"{layer}.busy_s", f"{layer}.self_s",
                        f"frame.{layer}.self_s"):
                out[key] = 0.0
        # layers open above each span, shared between spans with equal sets
        outer: list = [frozenset()] * len(self.spans)
        shared: dict = {}
        for i, (name, phase, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                key = (outer[parent], layers[parent])
                if key not in shared:
                    shared[key] = outer[parent] | {layers[parent]}
                outer[i] = shared[key]
            scale = 1e-9 / reps[phase]
            out[f"{name}_s"] += dur[i] * scale
            out[f"{layers[i]}.self_s"] += own[i] * scale
            if layers[i] not in outer[i]:
                out[f"{layers[i]}.busy_s"] += dur[i] * scale
            if phase == "frame":
                out[f"frame.{layers[i]}.self_s"] += own[i] * scale
        out["frame.total_s"] = out.get("bench.frame_s", 0.0)
        return out

    def frame_path_balance(self) -> tuple[int, int]:
        """(traced frame time, sum of self times on the frame path) in ns;
        the two are equal when every frame-path span nests in a frame span."""
        _, dur, own = self._exclusive()
        total = sum(d for d, s in zip(dur, self.spans)
                    if s[1] == "frame" and s[0] == "bench.frame")
        return total, sum(o for o, s in zip(own, self.spans) if s[1] == "frame")

    def normalised_counts(self, reps: dict[str, int]) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (phase, key), n in self.counts.items():
            out[key] += n / reps[phase]
        return dict(out)

