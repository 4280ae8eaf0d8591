"""Spans recorded around calls into the cgrs layers, from outside the package.

A traced run installs wrappers on the module globals the controller calls and
on a few class attributes, runs the workload, then restores every original.
Each wrapper records one span (name, start, end, parent span, generation)
into flat in-memory arrays; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

#: (module, attribute, span name): functions the controller and sampler call
#: through their module globals.
MODULE_TARGETS = (
    ("cgrs.controller", "sample_from_logits", "sampling.sample_from_logits"),
    ("cgrs.controller", "distribution_to_logits", "sampling.distribution_to_logits"),
    ("cgrs.controller", "mask_triggers", "suppression.mask_triggers"),
    ("cgrs.controller", "should_suppress", "suppression.should_suppress"),
    ("cgrs.controller", "update_state", "suppression.update_state"),
    ("cgrs.controller", "certainty_score", "certainty.certainty_score"),
    ("cgrs.controller", "sampling_uniform", "rng.sampling_uniform"),
    ("cgrs.controller", "run_probe", "controller.run_probe"),
    ("cgrs.sampling", "softmax", "sampling.softmax"),
    ("cgrs.sampling", "nucleus_filter", "sampling.nucleus_filter"),
    ("cgrs.suppression", "decision_uniform", "rng.decision_uniform"),
)

#: (module, class, attribute, span name): methods wrapped on the class.
CLASS_TARGETS = (
    ("cgrs.controller", "GenerationSession", "next_token", "controller.next_token"),
    ("cgrs.controller", "CheckpointDetector", "feed", "controller.checkpoint_feed"),
    ("cgrs.controller", "DecodeTrace", "to_json", "controller.trace_to_json"),
    ("cgrs.lexicon", "Vocabulary", "encode", "lexicon.encode"),
    ("cgrs.certainty", "TokenDistribution", "__post_init__", "certainty.token_distribution_validate"),
)


class Tracer:
    """Span recorder with flat array storage, so long runs stay small."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.generation = array("i")
        self.raised = array("b")
        self.notes: dict[int, float] = {}  # span id -> a value measured inside it
        self._stack: list[int] = []
        self._generation = -1

    def intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def new_generation(self) -> None:
        self._generation += 1

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.generation.append(self._generation)
        self.end.append(0)
        self.raised.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int, raised: bool = False) -> None:
        self.end[sid] = time.perf_counter_ns()
        self.raised[sid] = raised
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self.open(self.intern(name))
        try:
            yield sid
        finally:
            self.close(sid)

    def note(self, value: float) -> None:
        """Attach a value to the innermost open span."""
        self.notes[self._stack[-1]] = value

    def wrap(self, fn, name: str):
        name_id = self.intern(name)

        def traced(*args, **kwargs):
            sid = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, raised=True)
                raise
            self.close(sid)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "generation": np.frombuffer(self.generation, dtype=np.int32),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def targets(extra: tuple = ()) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrappable target that exists."""
    found = []
    for module_name, attr, span_name in MODULE_TARGETS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            found.append((module, attr, span_name))
    for module_name, cls_name, attr, span_name in CLASS_TARGETS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if cls is not None and attr in vars(cls):
            found.append((cls, attr, span_name))
    for cls, attr, span_name in extra:
        found.append((cls, attr, span_name))
    return found


@contextmanager
def installed(tracer: Tracer, extra: tuple = ()) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore them."""
    saved = []
    try:
        for owner, attr, span_name in targets(extra):
            original = getattr(owner, attr) if not isinstance(owner, type) else vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, span_name))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanTable:
    """Per-name aggregates of a finished trace: calls, inclusive and self time."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.raised = a["raised"]
        self.generation = a["generation"]
        self.duration = (a["end"] - a["start"]).astype(np.float64)
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=len(self.duration)
        )
        self.self_time = self.duration - child_time
        self.notes = tracer.notes

    def ids(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def calls(self, name: str) -> int:
        return int(self.ids(name).size)

    def total_ns(self, name: str) -> float:
        return float(self.duration[self.ids(name)].sum())

    def mean_us(self, name: str) -> float:
        ids = self.ids(name)
        return float(self.duration[ids].mean() / 1e3) if ids.size else 0.0

    def children_of(self, name: str, parent: str) -> np.ndarray:
        """Ids of ``name`` spans whose parent span is a ``parent`` span."""
        ids = self.ids(name)
        parents = self.parent[ids]
        ok = parents >= 0
        want = self.names.index(parent) if parent in self.names else -2
        return ids[ok][self.name[parents[ok]] == want]

    def durations_ms(self, name: str, parent: str | None = None) -> np.ndarray:
        ids = self.ids(name) if parent is None else self.children_of(name, parent)
        return self.duration[ids] / 1e6
