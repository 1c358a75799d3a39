"""Spans around curveclust's layer boundaries, recorded from outside.

``Tracer.install`` replaces the public functions of each layer module
(``frechet``, ``clustering``, ``coresets``, ``geometry``, ``oracle``,
``cli``), plus the free-space decision method, with wrappers that
record one span per call: layer function, start, end, parent span and
the instance id of the pipeline it belongs to. Every module that
imported a function under any name gets the wrapper, so calls between
layers are seen. ``uninstall`` restores the originals. Spans stay in
memory until ``write`` is called; ``layer_metrics`` derives self time
and counts from them. The library itself is not modified.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

import numpy as np

LAYERS = ("frechet", "clustering", "coresets", "geometry", "oracle", "cli")
PACKAGE_MODULES = ("curveclust", "curveclust.curves") + tuple(
    f"curveclust.{m}" for m in LAYERS
)
SOLVE = "frechet.frechet_distance"


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for n in names:
        f = getattr(mod, n)
        if inspect.isfunction(f) and f.__module__ == mod.__name__:
            yield n, f


def _pair_key(a, b) -> tuple:
    ka = getattr(a, "vertices", a).tobytes()
    kb = getattr(b, "vertices", b).tobytes()
    return (ka, kb) if ka <= kb else (kb, ka)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.names: list[str] = []  # span kinds, "layer.function"
        self.kind: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.instance: list[int] = []
        self.current_instance = -1
        self.solves_repeated = 0
        self.swaps = 0
        self.candidates = 0
        self.violations = 0
        self.declined = 0
        self._stack = [-1]
        self._seen_pairs: set = set()
        self._patched: list = []

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        kid = self.names.index(name)
        kind, start, end = self.kind, self.start, self.end
        parent, instance, stack = self.parent, self.instance, self._stack
        before = after = None
        if name == SOLVE:
            before = self._count_repeat
        elif name == "cli.main":
            before = self._new_command
        elif name == "clustering.k_median_approx":
            after = self._count_swaps
        elif name == "oracle.coreset_sandwich_check":
            after = self._count_candidates
        elif name == "coresets.center_coreset_curves":
            after = self._count_declined

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(kind)
            kind.append(kid)
            parent.append(stack[-1])
            instance.append(self.current_instance)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_repeat(self, args):
        key = _pair_key(args[0], args[1])
        if key in self._seen_pairs:
            self.solves_repeated += 1
        else:
            self._seen_pairs.add(key)

    def _new_command(self, args):
        self._seen_pairs = set()  # repeats are counted within one command

    def _count_swaps(self, clust):
        self.swaps += len(clust.meta["swaps"])

    def _count_candidates(self, report):
        self.candidates += report.checked
        self.violations += len(report.violations)

    def _count_declined(self, result):
        self.declined += not hasattr(result, "members")

    def install(self):
        mods = [importlib.import_module(m) for m in PACKAGE_MODULES]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"curveclust.{layer}")
            for n, f in _public_functions(mod):
                wrappers[id(f)] = self._wrap(f"{layer}.{n}", f)
        for mod in mods:
            for n, v in list(vars(mod).items()):
                if inspect.isfunction(v) and id(v) in wrappers:
                    self._patched.append((mod, n, v))
                    setattr(mod, n, wrappers[id(v)])
        free_space = importlib.import_module("curveclust.frechet")._FreeSpace
        decide = free_space.decide
        self._patched.append((free_space, "decide", decide))
        free_space.decide = self._wrap("frechet._FreeSpace.decide", decide)

    def uninstall(self):
        for owner, n, v in reversed(self._patched):
            setattr(owner, n, v)
        self._patched = []

    def write(self, path: str):
        """All spans as tab-separated lines: id, name, start, end, parent, instance."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tinstance\n")
            for i, (k, s, e, p, inst) in enumerate(
                zip(self.kind, self.start, self.end, self.parent, self.instance)
            ):
                fh.write(f"{i}\t{self.names[k]}\t{s!r}\t{e!r}\t{p}\t{inst}\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and times derived from the recorded spans."""
        kind = np.asarray(self.kind, dtype=int)
        parent = np.asarray(self.parent, dtype=int)
        dur = np.asarray(self.end) - np.asarray(self.start)
        layer_of_kind = np.asarray(
            [LAYERS.index(n.split(".", 1)[0]) for n in self.names], dtype=int
        )
        layer = layer_of_kind[kind]
        children = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        self_time = dur - children

        def total(names):
            ids = [i for i, n in enumerate(self.names) if n in names]
            return float(dur[np.isin(kind, ids)].sum())

        def count(name):
            return int(np.count_nonzero(kind == self.names.index(name))) if name in self.names else 0

        def self_s(layer_name):
            return float(self_time[layer == LAYERS.index(layer_name)].sum())

        # a solve belongs to the nearest enclosing span outside the frechet layer
        frechet = LAYERS.index("frechet")
        owner = np.full(len(kind), -1)
        for i in range(len(kind)):
            if layer[i] != frechet:
                owner[i] = layer[i]
            elif parent[i] >= 0:
                owner[i] = owner[parent[i]]
        solve = kind == self.names.index(SOLVE)

        def solves_under(layer_name):
            return int(np.count_nonzero(solve & (owner == LAYERS.index(layer_name))))

        solves = count(SOLVE)
        decisions = count("frechet._FreeSpace.decide")
        solve_s = total({SOLVE})
        oracle_solves = solves_under("oracle")
        return {
            "frechet.solves": (solves, "count"),
            "frechet.solve_s": (solve_s, "s"),
            "frechet.solve_us": (1e6 * solve_s / solves if solves else 0.0, "us"),
            "frechet.discrete_calls": (count("frechet.discrete_frechet"), "count"),
            "frechet.discrete_s": (total({"frechet.discrete_frechet"}), "s"),
            "frechet.decisions": (decisions, "count"),
            "frechet.decide_s": (total({"frechet._FreeSpace.decide"}), "s"),
            "frechet.decisions_per_solve": (decisions / solves if solves else 0.0, "ratio"),
            "frechet.repeat_solve_frac": (
                self.solves_repeated / solves if solves else 0.0, "ratio"),
            "frechet.simplify_calls": (count("frechet.simplify"), "count"),
            "frechet.simplify_s": (total({"frechet.simplify"}), "s"),
            "clustering.self_s": (self_s("clustering"), "s"),
            "clustering.solves": (solves_under("clustering"), "count"),
            "clustering.swaps": (self.swaps, "count"),
            "coresets.self_s": (self_s("coresets"), "s"),
            "coresets.declined": (self.declined, "count"),
            "geometry.grid_lookups": (count("geometry.grid_cell_of"), "count"),
            "geometry.grid_s": (total({"geometry.grid_cell_of"}), "s"),
            "oracle.self_s": (self_s("oracle"), "s"),
            "oracle.candidates": (self.candidates, "count"),
            "oracle.solves": (oracle_solves, "count"),
            "oracle.solves_per_candidate": (
                oracle_solves / self.candidates if self.candidates else 0.0, "ratio"),
            "oracle.violation_frac": (
                self.violations / self.candidates if self.candidates else 0.0, "ratio"),
            "cli.self_s": (self_s("cli"), "s"),
            "cli.read_s": (total({"cli.read_curvefile", "cli.read_coresetfile"}), "s"),
        }
