"""Exhaustive reference computations for desk-scale verification.

Everything here trades speed for independence: couplings are
enumerated rather than tabulated, candidate center sets are tried one
by one, and guards reject inputs big enough to make enumeration
dishonest. The fast implementations are tested against these, never
the other way round.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curves import Curve, CurveSet
from .frechet import _vertex_array, discrete_frechet
from .clustering import PairwiseFrechet, cost as clustering_cost
from .geometry import centroid, euclidean

__all__ = [
    "GuardError",
    "OracleReport",
    "exhaustive_discrete_frechet",
    "exhaustive_simplify_value",
    "subdivided_frechet_bounds",
    "brute_force_discrete_center",
    "brute_force_discrete_median",
    "all_center_subsets",
    "random_center_subsets",
    "SandwichReport",
    "coreset_sandwich_check",
    "MeansCounterexample",
    "means_counterexample",
]

MAX_ORACLE_VERTICES = 7
MAX_ORACLE_CURVES = 14
MAX_ORACLE_K = 3


class GuardError(ValueError):
    """An oracle was asked for more than it can exhaustively enumerate."""


@dataclass
class OracleReport:
    """Optimum found by enumeration, optionally compared with a target."""

    instance: dict
    optimal_value: float
    optimal_argument: tuple
    exact: bool = False
    target_value: float | None = None
    ratio: float | None = None

    def against(self, target: float) -> "OracleReport":
        """Attach a target value; the ratio is left out when the optimum is 0."""
        if self.optimal_value > 0.0:
            return replace(self, target_value=target, ratio=target / self.optimal_value)
        return replace(self, target_value=target, exact=True)


def _coupling_min_max(P, Q) -> float:
    # walk every monotone coupling, tracking the worst pair on the way
    D = np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=-1)
    np_, nq = D.shape
    best = [math.inf]

    def walk(i, j, worst):
        dij = D[i, j]
        if dij > worst:
            worst = dij
        if i == np_ - 1 and j == nq - 1:
            if worst < best[0]:
                best[0] = worst
            return
        if i + 1 < np_:
            walk(i + 1, j, worst)
        if j + 1 < nq:
            walk(i, j + 1, worst)
        if i + 1 < np_ and j + 1 < nq:
            walk(i + 1, j + 1, worst)

    walk(0, 0, 0.0)
    return float(best[0])


def exhaustive_discrete_frechet(p, q) -> float:
    """Discrete distance by direct enumeration of all monotone couplings."""
    P, Q = _vertex_array(p), _vertex_array(q)
    if len(P) > MAX_ORACLE_VERTICES or len(Q) > MAX_ORACLE_VERTICES:
        raise GuardError(
            f"exhaustive coupling enumeration is capped at "
            f"{MAX_ORACLE_VERTICES}x{MAX_ORACLE_VERTICES} vertices"
        )
    if P.shape[1] != Q.shape[1]:
        raise ValueError("dimension mismatch")
    return _coupling_min_max(P, Q)


def exhaustive_simplify_value(curve: Curve, l: int) -> float:
    """Best achievable summary error, trying every qualifying subsequence.

    The inner distances also come from coupling enumeration, so this
    shares nothing with the tabulated implementations it checks. The
    cap keeps the double enumeration honest in time.
    """
    m = len(curve)
    if m > 12 or l > MAX_ORACLE_VERTICES:
        raise GuardError("exhaustive subsequence search is capped at 12 vertices")
    if l < 2:
        raise ValueError("need at least two vertices to keep")
    if m <= l:
        return 0.0
    V = curve.vertices
    best = math.inf
    inner = range(1, m - 1)
    for take in range(min(l, m) - 1):
        for mid in itertools.combinations(inner, take):
            idx = (0,) + mid + (m - 1,)
            val = _coupling_min_max(V[list(idx)], V)
            if val < best:
                best = val
    return best


def _subdivide(V: np.ndarray, h: float) -> np.ndarray:
    # split every edge into equal pieces no longer than h, keeping the
    # original vertices exactly
    out = [V[:1]]
    for a, b in zip(V[:-1], V[1:]):
        pieces = max(1, math.ceil(float(np.linalg.norm(b - a)) / h))
        out.append(a + (np.arange(1, pieces)[:, None] / pieces) * (b - a))
        out.append(b[None])
    return np.vstack(out)


def subdivided_frechet_bounds(p, q, h: float) -> tuple[float, float]:
    """Bracket on the continuous distance from subdivided discrete couplings.

    Every edge of both curves is split into pieces of length at most
    ``h``, and d is the discrete distance of the refined curves. A
    vertex coupling interpolates to a traversal, so the continuous
    distance is at most d; refining edges to length h brings the
    discrete distance within h of the continuous one (Eiter and
    Mannila 1994). Returns ``(d - h, d)``. No free-space geometry is
    involved, which makes this an independent reference for the
    continuous solver.
    """
    if not h > 0.0:
        raise ValueError("h must be positive")
    P, Q = _vertex_array(p), _vertex_array(q)
    d = discrete_frechet(_subdivide(P, h), _subdivide(Q, h))
    return d - h, d


def _guard_instance(n, k):
    if n > MAX_ORACLE_CURVES or k > MAX_ORACLE_K:
        raise GuardError(
            f"brute force is capped at {MAX_ORACLE_CURVES} curves and k <= {MAX_ORACLE_K}"
        )


def brute_force_discrete_center(T, k: int) -> OracleReport:
    """Optimal max-radius cost over all k-subsets of input curves."""
    return _brute_force(T, k, "center")


def brute_force_discrete_median(T, k: int) -> OracleReport:
    """Optimal sum-of-distances cost over all k-subsets of input curves."""
    return _brute_force(T, k, "median")


def _brute_force(T, k, kind):
    curves = list(T)
    n = len(curves)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    _guard_instance(n, k)
    M = PairwiseFrechet(curves).values()
    best = math.inf
    arg = None
    for subset in itertools.combinations(range(n), k):
        nearest = M[:, subset].min(axis=1)
        val = float(nearest.max() if kind == "center" else nearest.sum())
        if val < best:
            best = val
            arg = subset
    return OracleReport(
        instance={"n": n, "k": k, "objective": kind},
        optimal_value=best,
        optimal_argument=arg,
        exact=best == 0.0,
    )


def all_center_subsets(n: int, k: int, limit: int | None = None):
    """All sorted k-subsets of 0..n-1, optionally guarded by a count limit."""
    total = math.comb(n, k)
    if limit is not None and total > limit:
        raise GuardError(f"{total} candidate sets exceed the limit of {limit}")
    return itertools.combinations(range(n), k)


def random_center_subsets(n: int, k: int, count: int, seed) -> list[tuple]:
    """Seeded sample of sorted k-subsets; repeats across draws are possible."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    rng = np.random.default_rng(seed)
    return [tuple(sorted(rng.choice(n, size=k, replace=False))) for _ in range(count)]


@dataclass
class SandwichReport:
    """Outcome of comparing coreset cost against full cost per candidate."""

    checked: int
    passed: bool
    worst_margin: float
    violations: list = field(default_factory=list)
    records: list = field(default_factory=list)


def coreset_sandwich_check(
    T,
    coreset,
    eps: float,
    candidates,
    kind: str = "center",
    distances: np.ndarray | None = None,
) -> SandwichReport:
    """Check that the coreset cost brackets the full cost for every candidate.

    Candidates are either tuples of input indices or sequences of
    curves. All distances come from one table whose rows are the input
    curves followed by every member that differs from the input its
    ``member_indices`` entry names; a member equal to that input is
    read off the input's row. An index names that input's column, and
    a candidate curve is added as a column of its own. The full cost
    over ``T`` and the weighted coreset cost are then reductions over
    the same nearest distances, and the coreset passes when its cost
    lies within (1 +- eps) of the full cost, up to rounding slack.
    ``distances``, an input-by-input matrix, supplies the input rows of
    index columns. Every candidate gets a record. ``eps`` must lie in
    (0, 1), and at least one candidate, each with at least one center,
    must be given.
    """
    if kind not in ("center", "median"):
        raise ValueError("sandwich checks cover the center and median objectives")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    curves = list(T)
    n = len(curves)
    weights = np.asarray(coreset.weights, dtype=float)
    member_idx = coreset.meta.get("member_indices")
    member_rows = []
    differing = []
    for j, member in enumerate(coreset.members):
        i = int(member_idx[j]) if member_idx is not None and j < len(member_idx) else -1
        if 0 <= i < n and np.array_equal(_vertex_array(member), _vertex_array(curves[i])):
            member_rows.append(i)
        else:
            member_rows.append(n + len(differing))
            differing.append(member)
    table = PairwiseFrechet(curves + differing)
    candidates = [tuple(cand) for cand in candidates]
    if not candidates:
        raise ValueError("no candidate center sets to check")
    if not all(candidates):
        raise ValueError("every candidate center set needs at least one center")
    columns = [
        [int(c) if isinstance(c, (int, np.integer)) else table.add(c) for c in cand]
        for cand in candidates
    ]
    # every entry the loop reads is solved here, in as few batches as possible
    given = set() if distances is None else {c for cols in columns for c in cols if c < n}
    table.fill(sorted(given), range(n, table.n))
    table.fill(sorted({c for cols in columns for c in cols} - given), range(table.n))

    def column(c):
        if c in given:
            return np.concatenate([distances[:, c], table.column(c, range(n, table.n))])
        return table.column(c, range(table.n))

    def candidate_costs(cols):
        near = np.min([column(c) for c in cols], axis=0)
        full_near = near[:n]
        core_near = near[member_rows]
        if kind == "center":
            return float(full_near.max()), float(core_near.max())
        # left-to-right sums, so reported costs do not depend on numpy's summation order
        return float(sum(full_near.tolist())), float(sum((weights * core_near).tolist()))

    worst = -math.inf
    violations = []
    records = []
    for cand, cols in zip(candidates, columns):
        full, core = candidate_costs(cols)
        lo = (1.0 - eps) * full
        hi = (1.0 + eps) * full
        slack = 1e-9 * max(1.0, full)
        margin = max(core - hi, lo - core)
        ok = margin <= slack
        if margin > worst:
            worst = margin
        rec = {
            "candidate": tuple(int(c) if isinstance(c, (int, np.integer)) else c for c in cand),
            "full": full,
            "coreset": core,
            "margin": margin,
            "ok": ok,
        }
        if not ok:
            violations.append(rec)
        records.append(rec)
    return SandwichReport(
        checked=len(records),
        passed=not violations,
        worst_margin=worst,
        violations=violations,
        records=records,
    )


@dataclass(frozen=True)
class MeansCounterexample:
    """A four-segment family where the per-vertex centroid center loses.

    ``centroid_center`` joins the centroids of all starts and all
    ends; ``split_center`` joins the centroid of the first half's
    starts with the centroid of the second half's ends. The instance
    is built so the split center has strictly smaller summed squared
    distance, with one center allowed.
    """

    curves: CurveSet
    centroid_center: Curve
    split_center: Curve
    centroid_cost: float
    split_cost: float


def means_counterexample() -> MeansCounterexample:
    """Fixed planar instance separating the two center constructions.

    The construction checks its own structure at runtime: the first
    two segments must attain their distance to either candidate center
    at the start vertex, the other two at the end vertex, and the two
    candidate centers must differ at both vertices. Any violation
    raises, since the cost comparison would then be meaningless.
    """
    segs = CurveSet(
        [
            Curve([[-10.0, 0.0], [0.0, 5.0]], label="left-up"),
            Curve([[10.0, 0.0], [0.0, 5.0]], label="right-up"),
            Curve([[0.0, -5.0], [-9.0, 1.0]], label="down-left"),
            Curve([[0.0, -5.0], [11.0, 1.0]], label="down-right"),
        ]
    )
    first_half = segs.curves[:2]
    second_half = segs.curves[2:]
    mu0 = centroid([c.start for c in segs])
    mu1 = centroid([c.end for c in segs])
    nu0 = centroid([c.start for c in first_half])
    nu1 = centroid([c.end for c in second_half])

    def attains(seg, p0, p1, at_start):
        ds = euclidean(seg.start, p0)
        de = euclidean(seg.end, p1)
        return ds >= de if at_start else de >= ds

    for seg in first_half:
        if not (attains(seg, mu0, mu1, True) and attains(seg, nu0, nu1, True)):
            raise RuntimeError("first-half segment does not peak at its start")
    for seg in second_half:
        if not (attains(seg, mu0, mu1, False) and attains(seg, nu0, nu1, False)):
            raise RuntimeError("second-half segment does not peak at its end")
    if np.allclose(mu0, nu0) or np.allclose(mu1, nu1):
        raise RuntimeError("candidate centers coincide at a vertex")

    centroid_center = Curve(np.vstack([mu0, mu1]), label="centroid")
    split_center = Curve(np.vstack([nu0, nu1]), label="split")
    c_cost = clustering_cost(segs, [centroid_center], "means")
    s_cost = clustering_cost(segs, [split_center], "means")
    return MeansCounterexample(segs, centroid_center, split_center, c_cost, s_cost)
