"""Distances between polygonal curves.

Three related computations live here. The discrete distance is an
exact dynamic program over vertex couplings. The continuous distance
is bracketed by bisection over an exact threshold test: the test
decides whether two curves admit a monotone traversal staying within a
given distance, and the bisection squeezes certified lower and upper
bounds around the true value. Simplification summarizes a curve by the
vertex subsequence whose discrete distance back to the input is
smallest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve

__all__ = [
    "FrechetResult",
    "discrete_frechet",
    "frechet_decision",
    "frechet_distance",
    "simplify",
]

DEFAULT_REL_TOL = 1e-9

# tiny negative discriminants count as tangency, not as a miss
_DISC_SLACK = -1e-12


@dataclass(frozen=True)
class FrechetResult:
    """A continuous distance bracketed by certified bounds.

    ``value`` is the midpoint of [lower, upper]; the bracket width is
    at most ``tolerance * max(1, upper)``.
    """

    value: float
    lower: float
    upper: float
    tolerance: float


def _vertex_array(c) -> np.ndarray:
    if isinstance(c, Curve):
        return c.vertices
    v = np.asarray(c, dtype=float)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValueError("expected a nonempty vertex array")
    if not np.isfinite(v).all():
        raise ValueError("vertex coordinates must be finite")
    return v


def _check_pair(P: np.ndarray, Q: np.ndarray):
    if P.shape[1] != Q.shape[1]:
        raise ValueError(f"dimension mismatch: {P.shape[1]} vs {Q.shape[1]}")
    if len(P) < 2 or len(Q) < 2:
        raise ValueError("curves need at least two vertices here")


def discrete_frechet(p, q) -> float:
    """Exact discrete distance: min over monotone couplings of the worst pair."""
    P, Q = _vertex_array(p), _vertex_array(q)
    if P.shape[1] != Q.shape[1]:
        raise ValueError(f"dimension mismatch: {P.shape[1]} vs {Q.shape[1]}")
    D = np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=-1)
    np_, nq = D.shape
    ca = np.empty_like(D)
    ca[0, 0] = D[0, 0]
    for i in range(1, np_):
        ca[i, 0] = max(ca[i - 1, 0], D[i, 0])
    for j in range(1, nq):
        ca[0, j] = max(ca[0, j - 1], D[0, j])
    for i in range(1, np_):
        row = ca[i]
        prev = ca[i - 1]
        for j in range(1, nq):
            reach = min(prev[j], prev[j - 1], row[j - 1])
            row[j] = reach if reach > D[i, j] else D[i, j]
    return float(ca[-1, -1])


class _FreeSpace:
    """Per-pair geometry of the threshold test, reusable across thresholds.

    The quadratic coefficients for every vertex-against-edge boundary
    are computed once; each call to ``decide`` only re-solves the
    quadratics for the new threshold and re-propagates reachability
    through the cell diagram.
    """

    def __init__(self, P: np.ndarray, Q: np.ndarray):
        self.p, self.q = len(P), len(Q)
        self.d_start = float(np.linalg.norm(P[0] - Q[0]))
        self.d_end = float(np.linalg.norm(P[-1] - Q[-1]))
        QU = Q[1:] - Q[:-1]
        PU = P[1:] - P[:-1]
        # vertical boundaries: P vertex i against Q edge j
        VD = P[:, None, :] - Q[None, :-1, :]
        self.va = np.einsum("jd,jd->j", QU, QU)[None, :]
        self.vb = np.einsum("pjd,jd->pj", VD, QU)
        self.vc0 = np.einsum("pjd,pjd->pj", VD, VD)
        # horizontal boundaries: P edge i against Q vertex j
        HD = Q[None, :, :] - P[:-1, None, :]
        self.ha = np.einsum("id,id->i", PU, PU)[:, None]
        self.hb = np.einsum("id,ijd->ij", PU, HD)
        self.hc0 = np.einsum("ijd,ijd->ij", HD, HD)

    @staticmethod
    def _intervals(a, b, c0, d2):
        """Clamped free intervals per boundary; empty is encoded as lo > hi."""
        c = c0 - d2
        disc = b * b - a * c
        disc = np.where((disc < 0.0) & (disc >= _DISC_SLACK), 0.0, disc)
        with np.errstate(invalid="ignore", divide="ignore"):
            root = np.sqrt(disc)
            lo = (b - root) / a
            hi = (b + root) / a
        lo = np.maximum(lo, 0.0)
        hi = np.minimum(hi, 1.0)
        # the plain vertex distances are authoritative at the endpoints,
        # which keeps corner decisions consistent across cells
        start_in = c <= 0.0
        end_in = a - 2.0 * b + c <= 0.0
        lo = np.where(start_in, 0.0, lo)
        hi = np.where(end_in, 1.0, hi)
        degen = a == 0.0
        if degen.any():
            lo = np.where(degen, np.where(start_in, 0.0, 1.0), lo)
            hi = np.where(degen, np.where(start_in, 1.0, 0.0), hi)
        bad = ~np.isfinite(lo) | ~np.isfinite(hi) | (lo > hi)
        lo = np.where(bad, 1.0, lo)
        hi = np.where(bad, 0.0, hi)
        return lo, hi

    def decide(self, delta: float) -> bool:
        if self.d_start > delta or self.d_end > delta:
            return False
        d2 = delta * delta
        vlo, vhi = self._intervals(self.va, self.vb, self.vc0, d2)
        hlo, hhi = self._intervals(self.ha, self.hb, self.hc0, d2)
        p, q = self.p, self.q
        # reachable portions of the boundaries, swept cell by cell
        RV = [[None] * (q - 1) for _ in range(p)]
        RH = [[None] * q for _ in range(p - 1)]
        for j in range(q - 1):
            if vlo[0, j] > 0.0:
                break
            RV[0][j] = (0.0, vhi[0, j])
            if vhi[0, j] < 1.0:
                break
        for i in range(p - 1):
            if hlo[i, 0] > 0.0:
                break
            RH[i][0] = (0.0, hhi[i, 0])
            if hhi[i, 0] < 1.0:
                break
        for i in range(p - 1):
            for j in range(q - 1):
                left = RV[i][j]
                bottom = RH[i][j]
                if left is None and bottom is None:
                    continue
                lo, hi = vlo[i + 1, j], vhi[i + 1, j]
                if lo <= hi:
                    if bottom is not None:
                        RV[i + 1][j] = (lo, hi)
                    else:
                        lo2 = left[0] if left[0] > lo else lo
                        if lo2 <= hi:
                            RV[i + 1][j] = (lo2, hi)
                lo, hi = hlo[i, j + 1], hhi[i, j + 1]
                if lo <= hi:
                    if left is not None:
                        RH[i][j + 1] = (lo, hi)
                    else:
                        lo2 = bottom[0] if bottom[0] > lo else lo
                        if lo2 <= hi:
                            RH[i][j + 1] = (lo2, hi)
        r = RV[p - 1][q - 2]
        if r is not None and r[1] == 1.0:
            return True
        r = RH[p - 2][q - 1]
        return r is not None and r[1] == 1.0


def frechet_decision(t, s, delta: float) -> bool:
    """Whether the curves stay within ``delta`` under some monotone traversal.

    Exact up to floating rounding; no tolerance parameter is involved.
    """
    if not delta >= 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta!r}")
    P, Q = _vertex_array(t), _vertex_array(s)
    _check_pair(P, Q)
    return _FreeSpace(P, Q).decide(delta)


def frechet_distance(t, s, rel_tol: float = DEFAULT_REL_TOL) -> FrechetResult:
    """Continuous distance, bracketed by bisection over the threshold test.

    Starts from the certified bracket [max endpoint distance, discrete
    distance] and halves it until the width drops below
    ``rel_tol * max(1, upper)``. The reported value is the midpoint.
    """
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol!r}")
    P, Q = _vertex_array(t), _vertex_array(s)
    _check_pair(P, Q)
    lb = max(
        float(np.linalg.norm(P[0] - Q[0])),
        float(np.linalg.norm(P[-1] - Q[-1])),
    )
    ub = discrete_frechet(P, Q)
    if ub < lb:
        ub = lb  # rounding: the coupling bound can dip below by ulps
    if ub - lb > rel_tol * max(1.0, ub):
        solver = _FreeSpace(P, Q)
        for _ in range(200):
            mid = 0.5 * (lb + ub)
            if mid <= lb or mid >= ub:
                break  # bracket exhausted at float resolution
            if solver.decide(mid):
                ub = mid
            else:
                lb = mid
            if ub - lb <= rel_tol * max(1.0, ub):
                break
    return FrechetResult(0.5 * (lb + ub), lb, ub, rel_tol)


def _endpoint_bound(S: np.ndarray) -> np.ndarray:
    """Larger endpoint distance per pair, from (B, 2, d) endpoint differences.

    Each squared norm is one dot product, as ``np.linalg.norm`` takes it
    for a vector, so every bound has the bits of ``frechet_distance``'s.
    """
    flat = S.reshape(-1, S.shape[-1])
    dot = (flat[:, None, :] @ flat[:, :, None]).reshape(-1, 2)
    return np.sqrt(np.maximum(dot[:, 0], dot[:, 1]))


def _discrete_batch(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``discrete_frechet`` over B pairs of one shape, one cell at a time."""
    # pair axis last; each cell's distance is overwritten by its table entry
    P, Q = P.transpose(1, 0, 2), Q.transpose(1, 0, 2)
    ca = np.linalg.norm(P[:, None] - Q[None], axis=-1)
    for j in range(1, ca.shape[1]):
        np.maximum(ca[0, j - 1], ca[0, j], out=ca[0, j])
    for i in range(1, len(ca)):
        row, prev = ca[i], ca[i - 1]
        np.maximum(prev[0], row[0], out=row[0])
        for j in range(1, len(row)):
            reach = np.minimum(np.minimum(prev[j], prev[j - 1]), row[j - 1])
            np.maximum(reach, row[j], out=row[j])
    return ca[-1, -1]


def _sweep_order(p: int, q: int) -> np.ndarray:
    """The free-space boundaries of a p-by-q pair in the order of the sweep.

    Boundaries are numbered as in ``_FreeSpace``: the p(q-1) vertical
    ones (vertex i of P against edge j of Q) row by row, then the
    (p-1)q horizontal ones. The order starts with the bottom row of
    vertical and the left column of horizontal boundaries, then takes
    the cells one anti-diagonal at a time, each diagonal's top
    boundaries and then its right ones, both by ascending i.
    """
    V = np.arange(p * (q - 1)).reshape(p, q - 1)
    H = p * (q - 1) + np.arange((p - 1) * q).reshape(p - 1, q)
    order = [V[0], H[:, 0]]
    for s in range(p + q - 3):
        i = np.arange(max(0, s - q + 2), min(s, p - 2) + 1)
        order += [V[i + 1, s - i], H[i, s - i + 1]]
    return np.concatenate(order)


def _boundary_coefficients(P: np.ndarray, Q: np.ndarray):
    """``_FreeSpace``'s quadratic coefficients for B pairs, (K, B) in sweep order.

    The einsum reductions run over the same contiguous last axis as in
    ``_FreeSpace`` and so give the same bits.
    """
    B, p, _ = P.shape
    q = Q.shape[1]
    QU = Q[:, 1:] - Q[:, :-1]
    PU = P[:, 1:] - P[:, :-1]
    VD = P[:, :, None, :] - Q[:, None, :-1, :]
    HD = Q[:, None, :, :] - P[:, :-1, None, :]
    va = np.broadcast_to(np.einsum("bjd,bjd->bj", QU, QU)[:, None, :], (B, p, q - 1))
    ha = np.broadcast_to(np.einsum("bid,bid->bi", PU, PU)[:, :, None], (B, p - 1, q))
    parts = (
        (va, ha),
        (np.einsum("bpjd,bjd->bpj", VD, QU), np.einsum("bid,bijd->bij", PU, HD)),
        (np.einsum("bpjd,bpjd->bpj", VD, VD), np.einsum("bijd,bijd->bij", HD, HD)),
    )
    order = _sweep_order(p, q)
    return [
        np.concatenate([v.reshape(B, -1), h.reshape(B, -1)], axis=1).T[order]
        for v, h in parts
    ]


def _reaches_end(lo: np.ndarray, hi: np.ndarray, p: int, q: int) -> np.ndarray:
    """``_FreeSpace.decide``'s cell sweep for free intervals in sweep order.

    ``lo`` and ``hi`` are (K, B), ordered as ``_sweep_order`` gives.
    A boundary's reachable part always ends where its free interval
    ends, so it is kept as its lower end alone, inf where nothing of
    it is reachable. The cells of one anti-diagonal depend only on
    the diagonal before, so each diagonal is one step over all of them.
    """
    inf = np.inf
    # the bottom row and the left column, reachable straight from the
    # start corner while the boundaries before them are free throughout
    starts = []
    for first, count in ((0, q - 1), (q - 1, p - 1)):
        ok = np.logical_and.accumulate(lo[first : first + count] <= 0.0, axis=0)
        ok[1:] &= np.logical_and.accumulate(hi[first : first + count - 1] >= 1.0, axis=0)
        starts.append(np.where(ok, 0.0, inf))
    row, col = starts
    k = p + q - 2
    for s in range(p + q - 3):
        i0, i1 = max(0, s - q + 2), min(s, p - 2)
        c = i1 - i0 + 1
        if s == 0:
            left, bottom = row[:1], col[:1]
        else:
            # a cell's left boundary is the top of the cell below it on
            # the diagonal before, its bottom the right of the one beside
            j0 = max(0, s - q + 1)
            left = tops[max(i0, 1) - 1 - j0 : i1 - j0]
            bottom = rights[i0 - j0 : min(i1, s - 1) - j0 + 1]
            if i0 == 0:
                left = np.concatenate([row[s : s + 1], left])
            if i1 == s:
                bottom = np.concatenate([bottom, col[s : s + 1]])
        # entered from below, the top is free from its start; entered
        # from the left only, no lower than where the left was entered
        top_lo, right_lo = lo[k : k + c], lo[k + c : k + 2 * c]
        top = np.where(bottom < inf, top_lo, np.maximum(left, top_lo))
        right = np.where(left < inf, right_lo, np.maximum(bottom, right_lo))
        tops = np.where(top <= hi[k : k + c], top, inf)
        rights = np.where(right <= hi[k + c : k + 2 * c], right, inf)
        k += 2 * c
    # the last cell's top and right boundaries meet the end corner
    return ((tops[0] < inf) & (hi[-2] == 1.0)) | ((rights[0] < inf) & (hi[-1] == 1.0))


def _frechet_batch(P: np.ndarray, Q: np.ndarray, rel_tol: float = DEFAULT_REL_TOL):
    """``frechet_distance`` over B pairs of one shape, bisected in lockstep.

    ``P`` is (B, p, d) and ``Q`` is (B, q, d). Every pair starts from
    the same bracket as in ``frechet_distance``, sees the same midpoints
    in the same order and retires under the same rules, so its value
    and upper bound carry the same bits. Each round decides all pending
    pairs with one interval solve and one cell sweep. Returns the
    values, the upper bounds and the number of threshold decisions
    each pair took.
    """
    p, q = P.shape[1], Q.shape[1]
    S = P[:, :: p - 1] - Q[:, :: q - 1]  # first and last vertices
    lb = _endpoint_bound(S)
    if p == q == 2:
        # two segments: the coupling bound is the larger endpoint distance too
        ub = np.linalg.norm(S, axis=-1)
        ub = np.maximum(ub[:, 0], ub[:, 1])
    else:
        ub = _discrete_batch(P, Q)
    ub = np.maximum(ub, lb)  # rounding can put it below by ulps
    steps = np.zeros(len(P), dtype=int)
    live = np.flatnonzero(ub - lb > rel_tol * np.maximum(1.0, ub))
    coef = _boundary_coefficients(P[live], Q[live]) if len(live) else None
    for _ in range(200):
        if not len(live):
            break
        lo, hi = lb[live], ub[live]
        mid = 0.5 * (lo + hi)
        keep = (mid > lo) & (mid < hi)  # else exhausted at float resolution
        if not keep.all():
            live, mid, coef = live[keep], mid[keep], [c[:, keep] for c in coef]
            if not len(live):
                break
        yes = _reaches_end(*_FreeSpace._intervals(*coef, mid * mid), p, q)
        steps[live] += 1
        ub[live[yes]] = mid[yes]
        lb[live[~yes]] = mid[~yes]
        hi = ub[live]
        keep = hi - lb[live] > rel_tol * np.maximum(1.0, hi)
        if not keep.all():
            live, coef = live[keep], [c[:, keep] for c in coef]
    return 0.5 * (lb + ub), ub, steps


def simplify(curve: Curve, l: int) -> Curve:
    """Best vertex-subsequence summary with at most ``l`` vertices.

    Keeps the first and last vertices and minimizes the discrete
    distance back to the input over all qualifying subsequences. A
    curve already short enough is returned unchanged. Runs in
    O(m^3 l) time, which is fine at the sizes the clusterers feed it.
    """
    if l < 2:
        raise ValueError("need at least two vertices to keep")
    m = len(curve)
    if m <= l:
        return curve
    V = curve.vertices
    D = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=-1)
    INF = math.inf
    # state: (kept count r, last kept vertex i, input position j)
    best = [[[INF] * m for _ in range(m)] for _ in range(l + 1)]
    parent = {}
    best[1][0][0] = 0.0
    for r in range(1, l + 1):
        layer = best[r]
        nxt = best[r + 1] if r < l else None
        for i in range(m):
            row = layer[i]
            Di = D[i]
            for j in range(m):
                cur = row[j]
                if cur == INF:
                    continue
                if j + 1 < m:
                    # walk the input forward under the same kept vertex
                    c = cur if cur > Di[j + 1] else Di[j + 1]
                    if c < row[j + 1]:
                        row[j + 1] = c
                        parent[(r, i, j + 1)] = (r, i, j)
                if nxt is not None:
                    for i2 in range(i + 1, m):
                        dv = D[i2, j]
                        c = cur if cur > dv else dv
                        if c < nxt[i2][j]:
                            nxt[i2][j] = c
                            parent[(r + 1, i2, j)] = (r, i, j)
                        if j + 1 < m:
                            dv = D[i2, j + 1]
                            c = cur if cur > dv else dv
                            if c < nxt[i2][j + 1]:
                                nxt[i2][j + 1] = c
                                parent[(r + 1, i2, j + 1)] = (r, i, j)
    end = None
    val = INF
    for r in range(2, l + 1):
        v = best[r][m - 1][m - 1]
        if v < val:
            val, end = v, (r, m - 1, m - 1)
    if end is None:
        raise RuntimeError("simplification table never reached the last vertex")
    kept = {0, m - 1}
    state = end
    while state in parent:
        prev = parent[state]
        if prev[0] < state[0]:
            kept.add(state[1])  # this step adopted a new kept vertex
        state = prev
    idx = sorted(kept)
    return Curve(V[idx], label=curve.label)

