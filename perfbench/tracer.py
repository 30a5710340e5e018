"""Benchmark-side layer tracing: wrap each layer's public functions.

The program itself is not edited.  :func:`install` replaces every
binding of a layer function that callers look up — the defining
module's attribute, ``from x import f`` copies in other ``repro``
modules, dispatch-table entries such as the equilibrium registry's
checker map, and methods on their classes — with a wrapper that records
one span per call.  Spans stay in memory as
``(id, layer, function, start_ns, end_ns, parent_id, thread)`` and are
written out once, when the run ends.

A generator function's span covers each ``next()`` separately, so a
move generator consumed lazily by a batch kernel is charged only for the
time it spends producing candidates.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: (module, attribute or Class.method, layer); the layer names match the
#: per-layer table of the benchmark
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.graphs.canonical", "canonical_key", "canonical"),
    ("repro.graphs.canonical", "canonical_labelling", "canonical"),
    ("repro.graphs.canonical", "canonical_graph", "canonical"),
    ("repro.graphs.canonical", "key_of_masks", "canonical"),
    ("repro.graphs.canonical", "decode_key", "canonical"),
    ("repro.graphs.enumerate", "connected_graph_layer", "enumerate"),
    ("repro.graphs.enumerate", "tree_layer_keys", "enumerate"),
    ("repro.graphs.enumerate", "enumerate_connected_graphs", "enumerate"),
    ("repro.graphs.enumerate", "enumerate_trees", "enumerate"),
    ("repro.graphs.distances", "DistanceMatrix.__init__", "distances_build"),
    ("repro.graphs.distances", "apsp_matrix", "distances_build"),
    ("repro.graphs.distances", "DistanceMatrix.apply_add", "distances_incr"),
    ("repro.graphs.distances", "DistanceMatrix.apply_remove", "distances_incr"),
    ("repro.graphs.distances", "DistanceMatrix.apply_swap", "distances_incr"),
    ("repro.graphs.distances", "DistanceMatrix.undo", "distances_incr"),
    ("repro.graphs.distances", "DistanceMatrix.rows_after_remove", "distances_incr"),
    ("repro.graphs.distances", "DistanceMatrix.rows_after_remove_from", "distances_incr"),
    ("repro.graphs.distances", "DistanceMatrix.row_after_remove", "distances_incr"),
    ("repro.graphs.distances", "DistanceMatrix.remove_loss", "distances_incr"),
    ("repro.graphs.distances", "DistanceMatrix.remove_loss_pair", "distances_incr"),
    ("repro.graphs.distances", "DistanceMatrix.matrix_after_bridge_removal", "distances_incr"),
    ("repro.graphs.bridges", "component_bridges", "bridges"),
    ("repro.graphs.bridges", "BridgeSet.__init__", "bridges"),
    ("repro.graphs.bridges", "BridgeSet.note_add", "bridges"),
    ("repro.graphs.bridges", "BridgeSet.note_remove", "bridges"),
    ("repro.graphs.bridges", "BridgeSet.revert", "bridges"),
    ("repro.equilibria.registry", "check", "equilibria"),
    ("repro.equilibria.add", "is_bilateral_add_equilibrium", "equilibria"),
    ("repro.equilibria.add", "is_unilateral_add_equilibrium", "equilibria"),
    ("repro.equilibria.neighborhood", "is_neighborhood_equilibrium", "equilibria"),
    ("repro.equilibria.pairwise", "is_bilateral_greedy_equilibrium", "equilibria"),
    ("repro.equilibria.pairwise", "is_pairwise_stable", "equilibria"),
    ("repro.equilibria.remove", "is_remove_equilibrium", "equilibria"),
    ("repro.equilibria.strong", "is_k_strong_equilibrium", "equilibria"),
    ("repro.equilibria.strong", "is_strong_equilibrium", "equilibria"),
    ("repro.equilibria.swap", "is_bilateral_swap_equilibrium", "equilibria"),
    ("repro.equilibria.approximate", "stability_factor", "equilibria"),
    ("repro.analysis.search", "classify_full_ladder", "equilibria"),
    ("repro.dynamics.movegen", "improving_moves", "movegen"),
    ("repro.core.batch", "sweep_best", "batch"),
    ("repro.core.batch", "batch_add_gains", "batch"),
    ("repro.core.batch", "batch_remove_losses", "batch"),
    ("repro.core.batch", "batch_swap_deltas", "batch"),
    ("repro.core.speculative", "SpeculativeEvaluator.evaluate", "batch"),
    ("repro.core.speculative", "SpeculativeEvaluator.evaluate_rows_only", "batch"),
    ("repro.campaigns.runners", "execute_trial", "campaigns"),
    ("repro.campaigns.store", "CampaignStore.append", "campaigns"),
    ("repro.campaigns.aggregate", "render_report", "campaigns"),
    ("repro.analysis.poa", "empirical_layer_poa", "driver"),
    ("repro.dynamics.engine", "run_dynamics", "driver"),
    ("repro.core.state", "GameState.__init__", "state"),
    ("repro.core.state", "GameState.apply", "state"),
    ("repro.core.state", "GameState.social_cost", "state"),
    ("repro.serve.service", "ServeApp.handle", "serve"),
    ("repro.serve.http", "_render", "serve"),
)

LAYERS = (
    "canonical", "enumerate", "distances_build", "distances_incr",
    "bridges", "equilibria", "movegen", "batch", "state", "driver",
    "campaigns", "serve",
)


class Tracer:
    """In-memory span recorder shared by every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        #: items yielded per wrapped generator function, and under
        #: ``<function>:invocations`` how many generators it created
        self.yields: dict[str, int] = defaultdict(int)
        self._yields_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, label: str, fn):
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        stack_of = self._stack
        yields, yields_lock = self.yields, self._yields_lock

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                tid = threading.get_ident()
                with yields_lock:
                    yields[label + ":invocations"] += 1
                while True:
                    stack = stack_of()
                    sid = next(ids)
                    parent = stack[-1] if stack else 0
                    stack.append(sid)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans.append((sid, layer, label, start, end, parent, tid))
                    with yields_lock:
                        yields[label] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (sid, layer, label, start, end, parent, threading.get_ident())
                )

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target and rebind all its aliases under ``repro``."""
        for module_name, attr, layer in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".", 1)
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._set(owner, method, self._wrap(layer, attr, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, attr, original)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not name.startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, key, wrapped)
                    elif isinstance(value, dict):
                        for entry, item in list(value.items()):
                            if item is original:
                                value[entry] = wrapped
                                self._patched.append((value, entry, original))

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        """One header line (generator yield counts), then one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({"yields": dict(self.yields)}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(path: Path) -> tuple[dict, list[tuple]]:
    """``(header, spans)`` as written by :meth:`Tracer.dump`."""
    with open(path) as handle:
        header = json.loads(handle.readline())
        return header, [tuple(json.loads(line)) for line in handle if line.strip()]


def summarise(spans: list[tuple], wall_ns: int) -> dict:
    """Per-layer self time and call counts, plus the unattributed share.

    A span's self time is its duration minus the durations of its direct
    children (children run on the span's own thread, nested inside it).
    The unattributed share is the part of ``wall_ns`` that no top-level
    span covers, with spans of concurrent threads merged first.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for sid, _layer, _label, start, end, parent, _tid in spans:
        if parent:
            child_ns[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    by_function: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    top: list[tuple[int, int]] = []
    for sid, layer, label, start, end, parent, _tid in spans:
        own = end - start - child_ns.get(sid, 0)
        self_ns[layer] += own
        calls[layer] += 1
        by_function[f"{layer}:{label}"][0] += 1
        by_function[f"{layer}:{label}"][1] += own
        if not parent:
            top.append((start, end))
    covered = 0
    cursor = None
    for start, end in sorted(top):
        if cursor is None or start > cursor:
            covered += end - start
            cursor = end
        elif end > cursor:
            covered += end - cursor
            cursor = end
    return {
        "self_s": {layer: self_ns[layer] / 1e9 for layer in LAYERS},
        "calls": {layer: calls[layer] for layer in LAYERS},
        "functions": {
            key: {"calls": count, "self_s": ns / 1e9}
            for key, (count, ns) in sorted(by_function.items())
        },
        "covered_s": covered / 1e9,
        "unattributed_frac": max(0.0, 1.0 - covered / wall_ns) if wall_ns else 0.0,
    }
