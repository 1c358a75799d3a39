"""Clustering of curve families: farthest-first selection and local search.

Two selection strategies cover the three objectives. Farthest-first
picks curves greedily by distance, either summarizing each pick down
to a vertex budget (for the low-complexity max-radius objective) or
keeping it verbatim (for the input-restricted variants). The
sum-of-distances objective then improves the farthest-first seed by
single-center swaps until no swap wins by a margin.

Comparisons between bracketed distances are interval-aware: whenever
brackets overlap enough to make an argmin or argmax ambiguous, the
contenders are re-solved at tighter tolerance before the tie falls
back to the lowest index. Costs and sums always use the midpoint
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import Curve
from .frechet import DEFAULT_REL_TOL, FrechetResult, frechet_distance, simplify

__all__ = [
    "Objective",
    "Clustering",
    "PairwiseFrechet",
    "nearest_center",
    "cost",
    "kl_center_approx",
    "k_center_approx",
    "k_median_approx",
]

KINDS = ("center", "median", "means")

# tolerance floor for tie refinement; below this we accept the lowest index
_TIE_FLOOR = 1e-12


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

    Positions 0..n-1 are the input curves; ``add`` appends a further
    curve (a summarized center, a candidate, a coreset member that
    differs from its input) and returns its position. An entry is
    solved on first access at the table's base tolerance, always as
    (lower position, higher position), so each unordered pair is
    solved once; the diagonal is 0 without a solve, and ``tighten``
    re-solves an entry in place. Solved entries live in per-column
    arrays of value, lower, upper and tolerance, four floats per row
    rather than one object per pair. ``values`` materializes the
    input-by-input midpoint matrix; the returned array is the table's
    own buffer and reflects subsequent tightening.
    """

    def __init__(self, curves, rel_tol: float = DEFAULT_REL_TOL):
        self.curves = list(curves)
        self.n = len(self.curves)
        self.rel_tol = rel_tol
        self._cols: dict[int, np.ndarray] = {}
        self._matrix = None

    def __len__(self):
        return len(self.curves)

    def add(self, curve) -> int:
        """Append a curve and return its position."""
        self.curves.append(curve)
        return len(self.curves) - 1

    def _column(self, j: int, rows: int) -> np.ndarray:
        # column j stacks value, lower, upper and tolerance (NaN while
        # unsolved) for at least ``rows`` table rows and every input row
        col = self._cols.get(j)
        old = 0 if col is None else col.shape[1]
        if col is not None and rows <= old:
            return col
        size = max(rows, self.n)
        new = np.full((4, size), np.nan)
        if col is not None:
            new[:, :old] = col
        # entries already solved from the other end of the pair
        for i, other in self._cols.items():
            if old <= i < size and j < other.shape[1]:
                new[:, i] = other[:, j]
        if old <= j < size:
            new[:, j] = 0.0
        self._cols[j] = new
        return new

    def _solve(self, i: int, j: int, tol: float) -> FrechetResult:
        a, b = (i, j) if i < j else (j, i)
        r = frechet_distance(self.curves[a], self.curves[b], tol)
        entry = (r.value, r.lower, r.upper, r.tolerance)
        self._cols[j][:, i] = entry
        if i in self._cols:
            self._column(i, j + 1)[:, j] = entry
        if self._matrix is not None and b < self.n:
            self._matrix[a, b] = self._matrix[b, a] = r.value
        return r

    def tighten(self, i: int, j: int, tol: float) -> FrechetResult:
        """Entry (i, j), re-solved at ``tol`` unless already at least as tight."""
        col = self._column(j, i + 1)
        if np.isnan(col[0, i]) or col[3, i] > tol:
            return self._solve(i, j, tol)
        return FrechetResult(*col[:, i].tolist())

    def result(self, i: int, j: int) -> FrechetResult:
        return self.tighten(i, j, self.rel_tol)

    def value(self, i: int, j: int) -> float:
        return self.result(i, j).value

    def column(self, j: int, rows) -> np.ndarray:
        """Distances from ``rows`` to position ``j``, solving missing ones in row order."""
        rows = np.asarray(rows, dtype=int)
        col = self._column(j, rows.max(initial=-1) + 1)
        for i in rows[np.isnan(col[0, rows])]:
            self._solve(int(i), j, self.rel_tol)
        return col[0, rows]

    def values(self) -> np.ndarray:
        if self._matrix is None:
            n = self.n
            self._matrix = np.zeros((n, n))
            for j in range(n):
                self._matrix[:, j] = self.column(j, range(n))
        return self._matrix

    def nearest(self, i: int, cols):
        """Index into ``cols`` of the position nearest to row ``i``, and its entry."""
        res = [self.result(i, j) for j in cols]
        tol = max(r.tolerance for r in res)
        while True:
            best = min(range(len(res)), key=lambda p: (res[p].value, p))
            rivals = [
                p for p, r in enumerate(res) if p != best and r.lower < res[best].upper
            ]
            if not rivals or tol <= _TIE_FLOOR:
                return best, res[best]
            tol = max(tol / 10.0, _TIE_FLOOR)
            for p in rivals + [best]:
                res[p] = self.tighten(i, cols[p], tol)

    def farthest(self, cols):
        """The input farthest from its nearest column in ``cols``.

        Returns it with ``nearest(i, cols)`` for every input i. Rows
        whose brackets do not overlap take their nearest column straight
        from the column arrays. A contender is refined by tightening its
        whole row, then searching its nearest column again.
        """
        n = self.n
        for j in cols:
            self.column(j, range(n))
        E = np.stack([self._cols[j][:, :n] for j in cols])
        first = E[:, 0].argmin(axis=0)
        B = E[first, :, np.arange(n)]
        overlap = E[:, 1] < B[:, 2]
        overlap[first, np.arange(n)] = False
        near = [(c, FrechetResult(*e)) for c, e in zip(first.tolist(), B.tolist())]
        for i in np.flatnonzero(overlap.any(axis=0)).tolist():
            near[i] = self.nearest(i, cols)
        tol = max(r.tolerance for _, r in near)
        while True:
            best = max(range(len(near)), key=lambda i: (near[i][1].value, -i))
            rivals = [
                i
                for i, (_, r) in enumerate(near)
                if i != best and r.upper > near[best][1].lower
            ]
            if not rivals or tol <= _TIE_FLOOR:
                return best, near
            tol = max(tol / 10.0, _TIE_FLOOR)
            for i in rivals + [best]:
                for j in cols:
                    self.tighten(i, j, tol)
                near[i] = self.nearest(i, cols)


def nearest_center(curve, centers, rel_tol: float = DEFAULT_REL_TOL):
    """Index and distance of the closest center, ties to the lowest index."""
    centers = list(centers)
    if not centers:
        raise ValueError("no centers given")
    table = PairwiseFrechet([curve], rel_tol)
    i, r = table.nearest(0, [table.add(c) for c in centers])
    return i, r.value


def cost(T, centers, kind: str, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Aggregate distance of every curve to its nearest center."""
    if kind not in KINDS:
        raise ValueError(f"unknown objective kind {kind!r}")
    vals = [nearest_center(t, centers, rel_tol)[1] for t in T]
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
    cols = [center_of(0)]
    picked = [0]
    radii = []
    while True:
        far, near = table.farthest(cols)
        if len(cols) == k:
            break
        radii.append(near[far][1].value)
        picked.append(far)
        cols.append(center_of(far))
    centers = [table.curves[j] for j in cols]
    assignment = [c for c, _ in near]
    upper = np.array([r.upper for _, r in near])
    return centers, picked, radii, assignment, near[far][1].value, upper


def kl_center_approx(T, k: int, l: int, rel_tol: float = DEFAULT_REL_TOL) -> Clustering:
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
    table = PairwiseFrechet(curves, rel_tol)
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


def k_center_approx(T, k: int, rel_tol: float = DEFAULT_REL_TOL) -> Clustering:
    """Farthest-first max-radius clustering with centers drawn from the input."""
    curves = list(T)
    if not curves:
        raise ValueError("cannot cluster an empty family")
    if not 1 <= k <= len(curves):
        raise ValueError(f"k must be in 1..{len(curves)}, got {k}")
    centers, picked, radii, assignment, radius, upper = _farthest_first(
        PairwiseFrechet(curves, rel_tol), k, lambda i: i
    )
    l = max(len(c) for c in curves)
    meta = {
        "center_indices": picked,
        "selection_radii": radii,
        "nearest_upper": upper,
    }
    return Clustering(centers, assignment, radius, Objective("center", k, l), meta)


def k_median_approx(
    T, k: int, gamma: float | None = None, rel_tol: float = DEFAULT_REL_TOL
) -> Clustering:
    """Sum-of-distances clustering over input curves by seeded local search.

    Seeds with the farthest-first centers, then repeatedly applies the
    first swap of one center for one non-center that improves the cost
    by more than ``gamma`` times the seed cost. Swap candidates are
    scanned by ascending center index, then ascending replacement
    index, restarting from the top after every swap, so the result is
    deterministic. ``gamma`` defaults to 1/(3 k n).
    """
    curves = list(T)
    n = len(curves)
    if not curves:
        raise ValueError("cannot cluster an empty family")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if gamma is None:
        gamma = 1.0 / (3.0 * k * n)
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")

    table = PairwiseFrechet(curves, rel_tol)
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

    assignment = [table.nearest(i, C)[0] for i in range(n)]
    final_cost = float(sum(M[i, C[a]] for i, a in enumerate(assignment)))
    l = max(len(c) for c in curves)
    meta = {
        "center_indices": list(C),
        "seed_indices": sorted(chosen),
        "seed_cost": seed_cost,
        "gamma": gamma,
        "swaps": swaps,
        "distances": M,
        "table": table,
    }
    return Clustering(
        [curves[i] for i in C],
        assignment,
        final_cost,
        Objective("median", k, l),
        meta,
    )
