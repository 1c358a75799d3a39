"""Independent checks of the CLI's outputs.

Nothing here imports curveclust. Distances come from two references
that share no code with ``curveclust.frechet``:

- segments (two vertices each): the continuous distance is the larger
  endpoint distance, in closed form;
- longer curves: the discrete distance of both curves subdivided until
  every edge is at most ``h`` long brackets the continuous distance,
  dF <= dDF(refined) <= dF + h (Eiter & Mannila 1994).

Each check takes a parsed output file and returns a list of problems;
an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

# subdivision length of the discrete reference, in input units; the
# benchmark's per-curve distances are about 1 to 3, so the bracket stays
# within a few percent of what it checks
REFINE_H = 0.05

# pairs per batched dynamic program, which caps the reference's memory
_CHUNK = 16


def refine(vertices: np.ndarray, h: float) -> np.ndarray:
    """The curve with every edge split into equal parts of length <= h."""
    pts = [vertices[:1]]
    for a, b in zip(vertices[:-1], vertices[1:]):
        parts = max(1, math.ceil(float(np.linalg.norm(b - a)) / h))
        t = np.arange(1, parts + 1)[:, None] / parts
        pts.append(a + t * (b - a))
    return np.concatenate(pts)


def _pad(curves: list[np.ndarray]) -> np.ndarray:
    # repeating the last vertex leaves the discrete distance unchanged
    size = max(len(c) for c in curves)
    return np.stack([np.concatenate([c, np.repeat(c[-1:], size - len(c), 0)]) for c in curves])


def batched_discrete(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Discrete Frechet distance of each pair (P[b], Q[b]).

    P is (B, L1, d) and Q is (B, L2, d). The coupling table is filled
    one anti-diagonal at a time, all pairs at once, so only two
    diagonals are ever held.
    """
    if P.shape[1] > Q.shape[1]:
        P, Q = Q, P  # the distance is symmetric; sweep the shorter axis
    B, L1, _ = P.shape
    L2 = Q.shape[1]
    rows = np.arange(L1)
    inf_col = np.full((B, 1), np.inf)
    prev2 = np.full((B, L1), np.inf)
    prev1 = np.full((B, L1), np.inf)
    prev1[:, 0] = np.linalg.norm(P[:, 0] - Q[:, 0], axis=-1)
    for s in range(1, L1 + L2 - 1):
        cols = s - rows
        valid = (cols >= 0) & (cols < L2)
        dist = np.linalg.norm(P - Q[:, np.clip(cols, 0, L2 - 1)], axis=-1)
        up = np.concatenate([inf_col, prev1[:, :-1]], axis=1)  # (i-1, j)
        diag = np.concatenate([inf_col, prev2[:, :-1]], axis=1)  # (i-1, j-1)
        reach = np.minimum(np.minimum(up, prev1), diag)  # prev1: (i, j-1)
        cur = np.where(valid, np.maximum(dist, reach), np.inf)
        prev2, prev1 = prev1, cur
    return prev1[:, L1 - 1]


def distance_bracket(curves: list[np.ndarray], centers: list[np.ndarray], h: float = REFINE_H):
    """Lower and upper bounds on dF(curves[i], centers[i]) for every i."""
    n = len(curves)
    lo = np.empty(n)
    hi = np.empty(n)
    seg = [i for i in range(n) if len(curves[i]) == 2 and len(centers[i]) == 2]
    for i in seg:
        a, c = curves[i], centers[i]
        lo[i] = hi[i] = max(np.linalg.norm(a[0] - c[0]), np.linalg.norm(a[1] - c[1]))
    rest = [i for i in range(n) if not (len(curves[i]) == 2 and len(centers[i]) == 2)]
    for start in range(0, len(rest), _CHUNK):
        idx = rest[start:start + _CHUNK]
        P = _pad([refine(curves[i], h) for i in idx])
        Q = _pad([refine(centers[i], h) for i in idx])
        d = batched_discrete(P, Q)
        hi[idx] = d
        lo[idx] = np.maximum(d - h, 0.0)
    return lo, hi


def check_cluster(out: dict, inputs: np.ndarray, objective: str) -> list[str]:
    """Recompute the reported cost from the reported centers and assignment."""
    n = len(inputs)
    centers = [np.asarray(c["vertices"], dtype=float) for c in out["centers"]]
    assign = out["assignment"]
    if len(assign) != n:
        return [f"assignment has {len(assign)} entries for {n} curves"]
    if any(not 0 <= a < len(centers) for a in assign):
        return ["assignment names a center that does not exist"]
    lo, hi = distance_bracket(list(inputs), [centers[a] for a in assign])
    if objective == "median":
        low, high = lo.sum(), hi.sum()
    else:
        low, high = lo.max(), hi.max()
    cost = float(out["cost"])
    # the library's midpoints carry a relative error of at most 1e-9 each
    tol = 1e-8 * (n + high)
    if not low - tol <= cost <= high + tol:
        return [f"cluster cost {cost!r} outside reference bracket [{low!r}, {high!r}]"]
    return []


def check_coreset(out: dict, inputs: np.ndarray) -> tuple[list[str], int]:
    """Members must be the input curves their indices name; weights positive.

    Returns the problems found and the member count.
    """
    members = out["members"]
    idx = np.asarray(out["meta"].get("member_indices", []), dtype=int)
    problems = []
    if len(idx) != len(members) or not len(members):
        return [f"{len(members)} members but {len(idx)} member indices"], len(members)
    if idx.min() < 0 or idx.max() >= len(inputs):
        return ["member index out of range"], len(members)
    verts = np.asarray([m["vertices"] for m in members], dtype=float)
    if verts.shape != (len(idx),) + inputs.shape[1:]:
        problems.append("member shapes differ from the input curves")
    elif verts.tobytes() != inputs[idx].tobytes():
        problems.append("a member differs from the input curve at its index")
    if any(m["label"] != f"t{i}" for m, i in zip(members, idx.tolist())):
        problems.append("a member label differs from its input curve's label")
    w = np.asarray([m["weight"] for m in members], dtype=float)
    if not (np.isfinite(w).all() and (w > 0).all()):
        problems.append("a weight is not positive")
    return problems, len(members)


def check_declined(out: dict, inputs: np.ndarray) -> list[str]:
    """A declined curve coreset must report a case its long-edge gate covers.

    The construction declines when (longest center edge / clustering
    cost) ** m exceeds sqrt(n): the bucket budget cannot be honoured.
    """
    n, m, _ = inputs.shape
    if out["declined"] is not True or out["limit"] != math.sqrt(n):
        return [f"malformed decline: {out!r}"]
    ratio = float(out["longest_edge"]) / float(out["approx_cost"])
    if not m * math.log(ratio) > 0.5 * math.log(n):
        return [f"declined although (edge/cost)^m = {ratio ** m!r} <= sqrt(n)"]
    return []


def check_verify(out: dict, variant: str, candidates: int) -> tuple[list[str], int]:
    """Center coresets must pass; returns problems and the violation count.

    Median violations are probabilistic, so they are counted, not failed.
    """
    problems = []
    if out["candidates"] != candidates:
        problems.append(f"verify checked {out['candidates']} of {candidates} candidates")
    if variant != "median" and out["passed"] is not True:
        problems.append("center coreset failed its sandwich check")
    return problems, len(out["violations"])
