"""Spans around the calls into each satset layer, recorded from outside.

The tracer replaces each listed function with a wrapper that records a
span (name, parent span, start, end), and also replaces every other name
the package binds to the same function, such as the copy that
``from .saturation import unsaturated`` leaves in ``hypergraph``.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (function, phase): set-up functions are reported per set-up, the rest per op.
LAYER_FUNCTIONS = (
    ("gf.field_for_order", "setup"),
    ("plane.build_pg2", "setup"),
    ("plane.canonical_plane", "op"),
    ("plane.load_plane", "op"),
    ("plane.validate_axioms", "op"),
    ("plane.ProjectivePlane.line_through", "op"),
    ("plane.ProjectivePlane.meet", "op"),
    ("saturation.unsaturated", "op"),
    ("saturation.is_saturating", "op"),
    ("saturation.SaturationState.add_point", "op"),
    ("saturation.SaturationState.benefit_vector", "op"),
    ("saturation.greedy_construct", "op"),
    ("saturation.complete", "op"),
    ("saturation.random_construct", "op"),
    ("rng.generator_from_seed", "op"),
    ("hypergraph.saturation_family", "op"),
    ("hypergraph.check_uniform_intersecting", "op"),
    ("hypergraph.pairwise_intersection_sizes", "op"),
    ("hypergraph.greedy_transversal", "op"),
    ("cli.main", "op"),
)
PACKAGE_MODULES = ("gf", "plane", "saturation", "rng", "hypergraph", "cli",
                   "baer", "formulas")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self, code: int) -> int:
        sid = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(self.code(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        code = self.code(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(code)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)
        return traced

    def install(self) -> None:
        """Wrap every LAYER_FUNCTIONS entry and every name bound to it."""
        modules = [importlib.import_module("satset")]
        modules += [importlib.import_module(f"satset.{m}") for m in PACKAGE_MODULES]
        for name, _ in LAYER_FUNCTIONS:
            mod_name, *path = name.split(".")
            owner = importlib.import_module(f"satset.{mod_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = vars(owner)[path[-1]]
            wrapper = self.wrap(name, original)
            sites = [(owner, path[-1])]
            if len(path) == 1:
                sites = [(m, a) for m in modules for a, v in vars(m).items()
                         if v is original]
            for site, attr in sites:
                setattr(site, attr, wrapper)
                self._patches.append((site, attr, original, wrapper))

    def uninstall(self) -> None:
        for site, attr, original, _ in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.array(self.name, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def roots(parent: np.ndarray) -> np.ndarray:
    """Index of each span's outermost ancestor (itself for a root)."""
    up = np.where(parent >= 0, parent, np.arange(len(parent)))
    while True:
        nxt = up[up]
        if np.array_equal(nxt, up):
            return up
        up = nxt


def summarize(names: list[str], name: np.ndarray, parent: np.ndarray,
              start: np.ndarray, end: np.ndarray) -> dict[tuple[str, str], tuple[int, float]]:
    """{(root span name, span name): (calls, total self seconds)}."""
    own = self_times(parent, start, end)
    phase = name[roots(parent)]
    key = phase * len(names) + name
    size = len(names) * len(names)
    calls = np.bincount(key, minlength=size)
    secs = np.bincount(key, weights=own, minlength=size)
    return {(names[k // len(names)], names[k % len(names)]): (int(calls[k]), float(secs[k]))
            for k in np.flatnonzero(calls)}
