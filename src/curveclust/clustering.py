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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import Curve
from .frechet import _vertex_array, frechet_distance, simplify

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


class PairwiseFrechet:
    """Lazily solved distance table over curve positions.

    The rows are the n curves given to the constructor, at positions
    0..n-1; ``add`` appends a further curve (a summarized center, a
    candidate) as a column-only position and returns it. An entry is
    solved on first access, always as (lower position, higher
    position), so each unordered pair is solved once; the diagonal is
    0 without a solve. Solved entries live in per-column arrays of the
    distance and its certified upper bound, two floats for each of the
    n rows rather than one object per pair.

    Two segments are at the larger of their two endpoint distances
    (Alt and Godau 1995), so when position j is a two-vertex curve its
    two-vertex rows are filled in closed form, one numpy expression per
    column, with the very bits ``frechet_distance`` would report.
    """

    def __init__(self, curves):
        self.curves = list(curves)
        self.n = len(self.curves)
        self._cols: dict[int, np.ndarray] = {}
        # per dimension d: which rows are two-vertex curves in d, and
        # their vertices stacked (n, 2, d)
        self._segments: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def add(self, curve) -> int:
        """Append a column-only curve and return its position."""
        self.curves.append(curve)
        return len(self.curves) - 1

    def _column(self, j: int) -> np.ndarray:
        # column j stacks value and upper bound (NaN while unsolved) per row
        col = self._cols.get(j)
        if col is not None:
            return col
        col = np.full((2, self.n), np.nan)
        if j < self.n:
            # entries already solved from the other end of the pair
            for i in range(self.n):
                other = self._cols.get(i)
                if other is not None:
                    col[:, i] = other[:, j]
            col[:, j] = 0.0
        self._cols[j] = col
        return col

    def _solve(self, i: int, j: int):
        a, b = (i, j) if i < j else (j, i)
        r = frechet_distance(self.curves[a], self.curves[b])
        self._cols[j][:, i] = r.value, r.upper
        if j < self.n and i in self._cols:
            self._cols[i][:, j] = r.value, r.upper

    def _segment_rows(self, d: int):
        seg = self._segments.get(d)
        if seg is None:
            is_seg = np.zeros(self.n, dtype=bool)
            V = np.zeros((self.n, 2, d))
            for i, c in enumerate(self.curves[: self.n]):
                v = _vertex_array(c)
                if v.shape == (2, d):
                    is_seg[i] = True
                    V[i] = v
            seg = self._segments[d] = (is_seg, V)
        return seg

    def _fill_segments(self, j: int, rows: np.ndarray) -> np.ndarray:
        """Fill the two-vertex ``rows`` of segment column ``j``; return the others."""
        Q = _vertex_array(self.curves[j])
        if Q.shape[0] != 2:
            return rows
        is_seg, V = self._segment_rows(Q.shape[1])
        seg = rows[is_seg[rows]]
        if not len(seg):
            return rows
        S = V[seg] - Q
        # frechet_distance brackets a segment pair by [max endpoint
        # distance, discrete distance], taking the first as a dot
        # product and the second as a summed norm; both are repeated
        # here so that every bit agrees
        flat = S.reshape(-1, Q.shape[1])
        lower = np.sqrt((flat[:, None, :] @ flat[:, :, None]).reshape(-1, 2).max(axis=1))
        upper = np.maximum(np.linalg.norm(S, axis=-1).max(axis=1), lower)
        col = self._cols[j]
        col[0, seg] = 0.5 * (lower + upper)
        col[1, seg] = upper
        if j < self.n:
            for i in seg.tolist():
                other = self._cols.get(i)
                if other is not None:
                    other[:, j] = col[:, i]
        return rows[~is_seg[rows]]

    def column(self, j: int, rows) -> np.ndarray:
        """Distances from ``rows`` to position ``j``, solving missing ones in row order."""
        rows = np.asarray(rows, dtype=int)
        col = self._column(j)
        missing = rows[np.isnan(col[0, rows])]
        if len(missing):
            for i in self._fill_segments(j, missing):
                self._solve(int(i), j)
        return col[0, rows]

    def values(self) -> np.ndarray:
        """The input-by-input distance matrix."""
        M = np.zeros((self.n, self.n))
        for j in range(self.n):
            M[:, j] = self.column(j, range(self.n))
        return M

    def nearest(self, cols, rows):
        """Nearest of ``cols`` to each of ``rows``, ties to the lowest index.

        Returns three arrays over ``rows``: the index into ``cols`` of
        the nearest position, that entry's distance and its certified
        upper bound.
        """
        if not cols:
            raise ValueError("no centers given")
        rows = np.asarray(rows, dtype=int)
        for j in cols:
            self.column(j, rows)
        E = np.stack([self._cols[j][:, rows] for j in cols])
        near = E[:, 0].argmin(axis=0)
        value, upper = E[near, :, np.arange(len(rows))].T
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
