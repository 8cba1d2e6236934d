"""Outside-in tracer: spans around calls into logvor's public functions.

The tracer lives in the benchmark process only.  It replaces each listed
public function at every ``logvor.*`` module binding (modules import
their helpers by name, so patching the defining module alone would miss
most calls) with a wrapper that records one span per call:
``(function, start_ns, end_ns, parent_span, op_id)``.  Spans stay in
memory and are written out once, at the end of the run.

What it cannot see: private helpers such as ``mle._correlation_multistart``
and ``cli._figure_rows``, Newton iterations and line-search halvings run
inside the public span that calls them, so their time shows up as that
span's self time.  Counting them needs solver telemetry from inside the
library.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

#: Traced public functions, by layer (the logvor module defining them).
TRACED = {
    "core": ("check_symmetric", "is_positive_definite", "log_likelihood",
             "score_matrix", "sym_from_json", "sym_to_json",
             "principal_submatrix", "embed"),
    "models": ("tangent_basis", "model_contains", "sem_fit",
               "sem_covariance", "trek_covariance", "model_from_json"),
    "graphs": ("is_chordal", "find_reducible_decomposition",
               "induced_subgraph", "maximal_cliques", "list_treks"),
    "mle": ("critical_points", "mle_concentration", "mle_graph_decomposable",
            "mle_dag", "criticality_residual", "cubic_roots_in_interval"),
    "cells": ("cell_membership", "in_spectrahedron", "lognormal_basis",
              "sample_spectrahedron", "bivariate_cell", "equicorrelation_cell",
              "ci_union_cell", "compose_cell", "project_cell"),
    "cli": ("main",),
}

#: Functions whose result length is recorded (returned points / samples).
_COUNT_RESULT = {"mle.critical_points", "cells.sample_spectrahedron"}

NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


class Tracer:
    """Install wrappers, collect spans, compute per-layer statistics."""

    def __init__(self):
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.size = array("q")      # len(result) where recorded, else -1
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        count_result = NAMES[name_id] in _COUNT_RESULT
        stack = self._stack
        cols = (self.name, self.start, self.end, self.parent, self.op,
                self.size)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(cols[0])
            for col in cols:
                col.append(-1)
            cols[0][idx] = name_id
            cols[3][idx] = stack[-1] if stack else -1
            cols[4][idx] = self.op_id
            stack.append(idx)
            cols[1][idx] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                if count_result:
                    cols[5][idx] = len(out)
                return out
            finally:
                cols[2][idx] = perf_counter_ns()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Patch every binding of a traced function in loaded logvor modules."""
        originals = {}
        for name_id, name in enumerate(NAMES):
            layer, fn = name.split(".")
            mod = sys.modules[f"logvor.{layer}"]
            originals[id(getattr(mod, fn))] = (name_id, getattr(mod, fn))
        wrappers = {key: self._wrap(name_id, fn)
                    for key, (name_id, fn) in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "logvor" and not modname.startswith("logvor."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def columns(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int16),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64),
                "size": np.frombuffer(self.size, dtype=np.int64)}

    def save(self, path) -> None:
        """Write every span (and the function-name table) as compressed npz."""
        np.savez_compressed(path, names=np.array(NAMES), **self.columns())


def span_stats(cols: dict[str, np.ndarray]) -> dict:
    """Per-function call counts and self times, plus the derived ratios.

    Self time is a span's duration minus the durations of its direct
    children; calls never overlap within one thread, so the children
    cover disjoint parts of the parent's interval.
    """
    names, parent = cols["name"].astype(np.int64), cols["parent"]
    dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child
    nfn = len(NAMES)
    calls = np.bincount(names, minlength=nfn)
    self_total = np.bincount(names, weights=self_ns, minlength=nfn)

    # samples returned per PD test made under sample_spectrahedron spans
    sample_id = NAMES.index("cells.sample_spectrahedron")
    pd_id = NAMES.index("core.is_positive_definite")
    root_sampler = np.full(len(names), False)
    for idx in np.flatnonzero(names == pd_id):
        p = parent[idx]
        while p >= 0 and names[p] != sample_id:
            p = parent[p]
        root_sampler[idx] = p >= 0
    samples = int(cols["size"][names == sample_id].clip(min=0).sum())
    pd_under = int(root_sampler.sum())

    cp_id = NAMES.index("mle.critical_points")
    cp_calls = int(calls[cp_id])
    points = int(cols["size"][names == cp_id].clip(min=0).sum())
    return {"calls": calls, "self_ns": self_total,
            "accept_ratio": samples / pd_under if pd_under else 0.0,
            "points_per_call": points / cp_calls if cp_calls else 0.0}


def calls_by_kind(cols: dict[str, np.ndarray], op_kinds: list[str]) -> dict:
    """Mean calls per op of each traced function, broken down by op kind."""
    names, ops = cols["name"].astype(np.int64), cols["op"]
    out: dict[str, dict[str, float]] = {}
    kinds = np.array(op_kinds)
    for kind in sorted(set(op_kinds)):
        op_ids = np.flatnonzero(kinds == kind)
        mask = np.isin(ops, op_ids)
        counts = np.bincount(names[mask], minlength=len(NAMES))
        out[kind] = {NAMES[i]: round(c / len(op_ids), 3)
                     for i, c in enumerate(counts) if c}
    return out
