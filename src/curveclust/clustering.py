"""Clustering of curve families: farthest-first selection and local search.

Two selection strategies cover the three objectives. Farthest-first
picks curves greedily by distance, either summarizing each pick down
to a vertex budget (for the low-complexity max-radius objective) or
keeping it verbatim (for the input-restricted variants). The
sum-of-distances objective then improves the farthest-first seed by
single-center swaps until no swap wins by a margin.

Distances are plain numbers: each comparison takes the midpoint of the
bracket that ``frechet_distance`` certifies at its default tolerance.
Every algorithm here is a constant-factor approximation, so a wobble
of that size changes none of their guarantees. Ties go to the lowest
index, which makes every outcome deterministic.

All distances come from one ``PairwiseFrechet`` table per run, which
solves whatever a request leaves missing as one batch, bisecting all
pairs of a shape in lockstep with the bits ``frechet_distance`` would
give one pair. So each caller asks for a whole round at once: every
farthest-first round reads all its centers in one ``nearest`` call,
and the local search reads the whole matrix from ``values``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import Curve
from .frechet import _check_pair, _frechet_batch, _vertex_array, simplify

__all__ = [
    "Objective",
    "Clustering",
    "PairwiseFrechet",
    "cost",
    "kl_center_approx",
    "k_center_approx",
    "k_median_approx",
]

KINDS = ("center", "median", "means")

# free-space boundaries one lockstep solve holds, pairs times boundaries
# per pair: each per-round temporary stays near 128 KiB. Two segments
# have the fewest boundaries, four, so a fill step takes at most a
# quarter as many table entries.
_BATCH = 1 << 14


@dataclass(frozen=True)
class Objective:
    """What a clustering minimizes.

    ``kind`` selects the aggregate: "center" takes the max distance,
    "median" the sum, "means" the sum of squares. ``k`` is the number
    of centers and ``l`` the vertex budget per center; the variants
    whose centers are input curves carry their input complexity here.
    """

    kind: str
    k: int
    l: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.l < 2:
            raise ValueError("l must be at least 2")


@dataclass
class Clustering:
    """Centers plus the induced assignment and its cost."""

    centers: list
    assignment: list
    cost: float
    objective: Objective
    meta: dict = field(default_factory=dict)


def _distinct(idx: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of ``idx``, all in 0..size-1, in ascending order."""
    seen = np.zeros(size, dtype=bool)
    seen[idx] = True
    return np.flatnonzero(seen)


class PairwiseFrechet:
    """Lazily solved distance table over curve positions.

    The rows are the n curves given to the constructor, at positions
    0..n-1; ``add`` appends a further curve (a summarized center, a
    candidate) as a column-only position and returns it. Entries are
    solved on request, a batch at a time: ``fill`` takes every missing
    entry of the columns and rows it is given, and ``column``,
    ``nearest`` and ``values`` fill before they read, so callers should
    ask for as much as they can at once. Each unordered pair is solved
    once, as (lower position, higher position), and kept in both
    columns where both exist; the diagonal is 0 without a solve. Every
    column stores the distance and its certified upper bound for each
    of the n rows.

    A batch is grouped by the shapes of its pairs and each group goes
    through one lockstep bisection that carries the very bits
    ``frechet_distance`` would report. Two segments are at the larger of
    their two endpoint distances (Alt and Godau 1995), so their starting
    bracket is already closed and they take no bisection step.

    ``stats`` counts entries filled from the starting bracket alone
    (``closed_form``) and by bisection (``bisected``), the threshold
    decisions those took (``decisions``, one per pair and step) and the
    lockstep steps (``rounds``).
    """

    def __init__(self, curves):
        self.curves = list(curves)
        self.n = len(self.curves)
        # entry (row i, column position j) is _store[:, _slot[j], i]: the
        # value and the upper bound, NaN while unsolved; -1 is no column
        self._store = np.empty((2, 0, self.n))
        self._slot = np.full(self.n, -1)
        self._used = 0
        # per position: the id of its shape, -1 until its first solve, and
        # its place in the stack of that shape's vertices
        self._sid = np.full(self.n, -1)
        self._place = np.zeros(self.n, dtype=int)
        self._shapes: dict = {}
        self._stacks: list = []
        self.stats = dict.fromkeys(("closed_form", "bisected", "decisions", "rounds"), 0)

    def add(self, curve) -> int:
        """Append a column-only curve and return its position."""
        self.curves.append(curve)
        self._slot = np.append(self._slot, -1)
        self._sid = np.append(self._sid, -1)
        self._place = np.append(self._place, 0)
        return len(self.curves) - 1

    def _columns(self, cols: np.ndarray) -> np.ndarray:
        """Slots of the distinct positions ``cols``, creating the columns they lack."""
        new = cols[self._slot[cols] < 0]
        if len(new):
            used = self._used + len(new)
            if used > self._store.shape[1]:
                grown = np.empty((2, max(used, 2 * self._store.shape[1]), self.n))
                grown[:, : self._used] = self._store[:, : self._used]
                self._store = grown
            S = self._store
            S[:, self._used : used] = np.nan
            old = np.flatnonzero(self._slot[: self.n] >= 0)
            self._slot[new] = np.arange(self._used, used)
            self._used = used
            new = new[new < self.n]
            # a new row column takes the entries solved from the other end
            S[:, self._slot[new][:, None], old] = S[:, self._slot[old][:, None], new].transpose(0, 2, 1)
            S[:, self._slot[new], new] = 0.0
        return self._slot[cols]

    def fill(self, cols, rows):
        """Solve every missing entry of columns ``cols`` at ``rows``.

        The columns are taken in blocks of at most ``_BATCH // 4``
        entries, and the missing entries of a block are solved together.
        """
        cols, rows = np.asarray(cols, dtype=int), np.asarray(rows, dtype=int)
        slots = self._slot[cols]
        if (slots >= 0).all() and not np.isnan(self._store[0][slots[:, None], rows]).any():
            return
        cols = _distinct(cols, len(self.curves))
        rows = _distinct(rows, self.n)
        slots = self._columns(cols)
        missing = np.isnan(self._store[0][slots[:, None], rows])
        # an entry requested from both ends of its pair is solved once: at
        # the end whose row is the lower position, whichever block that is
        asked = np.zeros((2, len(self.curves)), dtype=bool)
        asked[0, rows] = True
        asked[1, cols] = True
        step = max(1, _BATCH // 4 // max(1, len(rows)))
        for k in range(0, len(cols), step):
            j, i = np.nonzero(missing[k : k + step])
            i, j = rows[i], cols[k + j]
            once = (i < j) | ~(asked[0, j] & asked[1, i])
            i, j = i[once], j[once]
            if not len(i):
                continue
            entry = self._solve(np.minimum(i, j), np.maximum(i, j))
            self._store[:, self._slot[j], i] = entry
            # and from the other end, where that is a row with a column
            mirror = (j < self.n) & (self._slot[i] >= 0)
            self._store[:, self._slot[i[mirror]], j[mirror]] = entry[:, mirror]

    def _register(self, new: np.ndarray):
        """Stack the vertices of positions ``new`` with those of their shape."""
        verts = [_vertex_array(self.curves[x]) for x in new.tolist()]
        shapes = [v.shape for v in verts]
        for shape in dict.fromkeys(shapes):
            s = self._shapes.setdefault(shape, len(self._shapes))
            if s == len(self._stacks):
                self._stacks.append(np.empty((0,) + shape))
            take = [k for k, other in enumerate(shapes) if other == shape]
            self._sid[new[take]] = s
            self._place[new[take]] = len(self._stacks[s]) + np.arange(len(take))
            block = np.concatenate([verts[k] for k in take]).reshape((-1,) + shape)
            self._stacks[s] = np.concatenate([self._stacks[s], block])

    def _solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Value and upper bound of each pair (a, b), one batch per shape pair."""
        new = np.concatenate([a, b])
        new = new[self._sid[new] < 0]
        if len(new):
            self._register(_distinct(new, len(self.curves)))
        shapes, sid, place = len(self._shapes), self._sid, self._place
        group = sid[a] * shapes + sid[b]
        entry = np.empty((2, len(a)))
        for g in np.flatnonzero(np.bincount(group)):
            P, Q = self._stacks[g // shapes], self._stacks[g % shapes]
            _check_pair(P[0], Q[0])
            p, q = len(P[0]), len(Q[0])
            sel = np.flatnonzero(group == g)
            step = max(1, _BATCH // (p * (q - 1) + (p - 1) * q))
            for k in range(0, len(sel), step):
                part = sel[k : k + step]
                value, upper, steps = _frechet_batch(P[place[a[part]]], Q[place[b[part]]])
                entry[0, part], entry[1, part] = value, upper
                bisected = int(np.count_nonzero(steps))
                self.stats["closed_form"] += len(steps) - bisected
                self.stats["bisected"] += bisected
                self.stats["decisions"] += int(steps.sum())
                self.stats["rounds"] += int(steps.max())
        return entry

    def column(self, j: int, rows) -> np.ndarray:
        """Distances from ``rows`` to position ``j``, solving missing ones first."""
        rows = np.asarray(rows, dtype=int)
        self.fill([j], rows)
        return self._store[0, self._slot[j], rows]

    def values(self) -> np.ndarray:
        """The input-by-input distance matrix."""
        slots = self._columns(np.arange(self.n))
        M = self._store[:, slots]
        # missing entries come in mirrored pairs: solve those above the
        # diagonal, then take each over its NaN mirror
        a, b = np.nonzero(np.isnan(np.triu(M[0], 1)))
        if len(a):
            M[:, a, b] = self._solve(a, b)
            M = np.fmin(M, M.transpose(0, 2, 1))
            self._store[:, slots] = M
        return M[0].T.copy()

    def nearest(self, cols, rows):
        """Nearest of ``cols`` to each of ``rows``, ties to the lowest index.

        Returns three arrays over ``rows``: the index into ``cols`` of
        the nearest position, that entry's distance and its certified
        upper bound.
        """
        if not len(cols):
            raise ValueError("no centers given")
        cols, rows = np.asarray(cols, dtype=int), np.asarray(rows, dtype=int)
        self.fill(cols, rows)
        E = self._store[:, self._slot[cols][:, None], rows]
        near = E[0].argmin(axis=0)
        value, upper = E[:, near, np.arange(len(rows))]
        return near, value, upper


def cost(T, centers, kind: str) -> float:
    """Aggregate distance of every curve to its nearest center."""
    if kind not in KINDS:
        raise ValueError(f"unknown objective kind {kind!r}")
    table = PairwiseFrechet(T)
    cols = [table.add(c) for c in centers]
    vals = table.nearest(cols, range(table.n))[1].tolist()
    if kind == "center":
        return float(max(vals))
    if kind == "median":
        return float(sum(vals))
    return float(sum(v * v for v in vals))


def _farthest_first(table, k, center_of):
    """Greedy max-distance selection over the table's input rows.

    ``center_of(i)`` returns the table position that stands for input
    curve i as a center. The first center stands for curve 0; each
    later round picks the curve farthest from its nearest center.
    """
    rows = range(table.n)
    cols = [center_of(0)]
    picked = [0]
    radii = []
    while True:
        near, value, upper = table.nearest(cols, rows)
        far = int(value.argmax())
        if len(cols) == k:
            break
        radii.append(float(value[far]))
        picked.append(far)
        cols.append(center_of(far))
    centers = [table.curves[j] for j in cols]
    return centers, picked, radii, near.tolist(), float(value[far]), upper


def kl_center_approx(T, k: int, l: int) -> Clustering:
    """Farthest-first max-radius clustering with centers summarized to ``l`` vertices.

    Every chosen curve is simplified before it becomes a center, so the
    centers have complexity at most ``l`` regardless of the input.
    Ties, both for the nearest center and for the farthest curve, go to
    the lowest input index, which makes the outcome deterministic.
    """
    curves = list(T)
    if not curves:
        raise ValueError("cannot cluster an empty family")
    if k < 1:
        raise ValueError("k must be at least 1")
    table = PairwiseFrechet(curves)
    centers, picked, radii, assignment, radius, upper = _farthest_first(
        table, k, lambda i: table.add(simplify(curves[i], l))
    )
    meta = {
        "picked_indices": picked,
        "selection_radii": radii,
        "nearest_upper": upper,
        "duplicate_centers": bool(any(r == 0.0 for r in radii)),
    }
    return Clustering(centers, assignment, radius, Objective("center", k, l), meta)


def k_center_approx(T, k: int) -> Clustering:
    """Farthest-first max-radius clustering with centers drawn from the input."""
    curves = list(T)
    if not curves:
        raise ValueError("cannot cluster an empty family")
    if not 1 <= k <= len(curves):
        raise ValueError(f"k must be in 1..{len(curves)}, got {k}")
    centers, picked, radii, assignment, radius, upper = _farthest_first(
        PairwiseFrechet(curves), k, lambda i: i
    )
    l = max(len(c) for c in curves)
    meta = {
        "center_indices": picked,
        "selection_radii": radii,
        "nearest_upper": upper,
    }
    return Clustering(centers, assignment, radius, Objective("center", k, l), meta)


def k_median_approx(T, k: int) -> Clustering:
    """Sum-of-distances clustering over input curves by seeded local search.

    Seeds with the farthest-first centers, then repeatedly applies the
    first swap of one center for one non-center that improves the cost
    by more than 1/(3 k n) times the seed cost. Swap candidates are
    scanned by ascending center index, then ascending replacement
    index, restarting from the top after every swap, so the result is
    deterministic.
    """
    curves = list(T)
    n = len(curves)
    if not curves:
        raise ValueError("cannot cluster an empty family")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    gamma = 1.0 / (3.0 * k * n)

    table = PairwiseFrechet(curves)
    M = table.values()

    chosen = _farthest_first(table, k, lambda i: i)[1]
    C = sorted(chosen)
    seed_cost = float(M[:, C].min(axis=1).sum())
    margin = gamma * seed_cost
    swaps = []
    cost_now = seed_cost

    while True:
        found = False
        for c in list(C):
            others = [x for x in C if x != c]
            base = M[:, others].min(axis=1) if others else None
            for t in range(n):
                if t in C:
                    continue
                if base is None:
                    cand_cost = float(M[:, t].sum())
                else:
                    cand_cost = float(np.minimum(base, M[:, t]).sum())
                if cost_now - margin > cand_cost:
                    C = sorted(others + [t])
                    cost_now = cand_cost
                    swaps.append((c, t))
                    found = True
                    break
            if found:
                break
        if not found:
            break

    assignment = M[:, C].argmin(axis=1).tolist()
    final_cost = float(sum(M[i, C[a]] for i, a in enumerate(assignment)))
    l = max(len(c) for c in curves)
    meta = {
        "center_indices": list(C),
        "seed_indices": sorted(chosen),
        "seed_cost": seed_cost,
        "gamma": gamma,
        "swaps": swaps,
        "distances": M,
    }
    return Clustering(
        [curves[i] for i in C],
        assignment,
        final_cost,
        Objective("median", k, l),
        meta,
    )
