"""Small weighted substitutes for curve families.

Two constructions. The grid coresets for the max-radius objective
first cluster the input, then bucket curves by the cells their
vertices land in around the chosen centers; one representative per
occupied bucket suffices because curves sharing a bucket are close to
each other. The sampling coreset for the sum-of-distances objective
draws curves with probability proportional to an upper bound on how
much a single curve can matter to any candidate's cost, and reweights
each draw by the inverse of its probability, which preserves the cost
in expectation exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import Curve, pad_to_complexity
from .geometry import Cube, Grid, Motion, align_to_last_axis, grid_cell_of
from .clustering import Clustering, k_median_approx, kl_center_approx

__all__ = [
    "WeightedCoreset",
    "CoresetFailure",
    "SamplingDistribution",
    "center_coreset_segments",
    "center_coreset_curves",
    "sampling_distribution",
    "sample_size",
    "draw_sample",
    "median_coreset",
]

log = logging.getLogger("curveclust")

# relative inflation of the clustering radius so that certified upper
# bounds, not midpoints, define the coverage region
_COVER_SLACK = 1e-9


@dataclass
class WeightedCoreset:
    """Weighted curves standing in for a larger family."""

    members: list
    weights: np.ndarray
    epsilon: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.members) != len(self.weights):
            raise ValueError("one weight per member")
        if len(self.members) == 0:
            raise ValueError("a coreset cannot be empty")
        if not (self.weights > 0).all():
            raise ValueError("weights must be positive")

    def __len__(self):
        return len(self.members)


@dataclass(frozen=True)
class CoresetFailure:
    """The grid construction declined to build a superlinear coreset.

    Emitted when the longest center edge is so long relative to the
    clustering cost that the number of occupied vertex buckets could
    exceed the square root of the input size times the usual bound.
    """

    longest_edge: float
    approx_cost: float
    limit: float


def center_coreset_segments(T, eps: float, k: int) -> WeightedCoreset:
    """Grid coreset for the max-radius objective over segments.

    Buckets each segment by its assigned cluster and the grid cells of
    its two endpoints around that cluster's center; the lowest-index
    segment of each occupied bucket joins the coreset with weight 1.
    Any two segments in one bucket are within ``eps`` times the
    clustering radius of each other, which is what makes the coreset
    cost track the full cost for every candidate center set.
    """
    curves = list(T)
    if not curves:
        raise ValueError("cannot summarize an empty family")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    if any(len(c) != 2 for c in curves):
        raise ValueError("this construction handles segments only")
    d = curves[0].dimension
    clust = kl_center_approx(curves, k, 2)
    radius = float(clust.meta["nearest_upper"].max())
    meta = {
        "variant": "center-segments",
        "k": k,
        "approx_cost": radius,
        "degenerate": radius == 0.0,
    }
    if radius == 0.0:
        # all segments coincide with their centers; one stands for all
        log.info("center-segments: clustering radius is 0, keeping one member")
        meta["member_indices"] = [0]
        return WeightedCoreset([curves[0]], np.ones(1), eps, meta)
    cover = radius * (1.0 + _COVER_SLACK)
    cell = eps * radius / (6.0 * math.sqrt(d))
    grids = [
        (
            Grid(Cube(tuple(c.start), 2.0 * cover), cell),
            Grid(Cube(tuple(c.end), 2.0 * cover), cell),
        )
        for c in clust.centers
    ]
    chosen = {}
    order = []
    for i, seg in enumerate(curves):
        a = clust.assignment[i]
        gs, ge = grids[a]
        key = (a, grid_cell_of(gs, seg.start), grid_cell_of(ge, seg.end))
        if key[1] is None or key[2] is None:
            raise RuntimeError("segment escaped its cluster grid")
        if key not in chosen:
            chosen[key] = i
            order.append(i)
    meta.update(
        member_indices=order,
        cell_length=cell,
        cells_per_side=grids[0][0].cells_per_side,
    )
    return WeightedCoreset([curves[i] for i in order], np.ones(len(order)), eps, meta)


def center_coreset_curves(T, eps: float, k: int, l: int):
    """Grid coreset for the max-radius objective over curves.

    Inputs are padded to a common vertex count, clustered with centers
    of at most ``l`` vertices, and bucketed vertex by vertex: around
    every center edge a chain of cube grids is laid along the aligned
    edge direction, and a curve's bucket is the tuple of (grid, cell)
    addresses of its vertices, each vertex taking the first grid in
    the global order that contains it. Lowest-index representatives
    get weight 1. When the longest center edge is too long relative to
    the clustering radius the bucket count cannot be usefully bounded
    and a CoresetFailure is returned instead.
    """
    curves = list(T)
    if not curves:
        raise ValueError("cannot summarize an empty family")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    n = len(curves)
    d = curves[0].dimension
    if d < 2:
        raise ValueError("vertex grids need at least two dimensions to align edges")
    m = max(len(c) for c in curves)
    if m < 3:
        raise ValueError("use center_coreset_segments for segment families")
    padded = [pad_to_complexity(c, m) for c in curves]
    clust = kl_center_approx(padded, k, l)
    radius = float(clust.meta["nearest_upper"].max())
    meta = {
        "variant": "center-curves",
        "k": k,
        "l": l,
        "complexity": m,
        "approx_cost": radius,
        "degenerate": radius == 0.0,
    }
    if radius == 0.0:
        log.info("center-curves: clustering radius is 0, keeping one member")
        meta["member_indices"] = [0]
        return WeightedCoreset([curves[0]], np.ones(1), eps, meta)

    edges = []
    for c in clust.centers:
        v = c.vertices
        edges.extend((v[j], v[j + 1]) for j in range(len(v) - 1))
    longest = max(float(np.linalg.norm(b - a)) for a, b in edges)
    # a long-edge instance would blow past the sublinear bucket budget
    if longest > 0.0 and m * math.log(longest / radius) > 0.5 * math.log(n):
        log.info(
            "center-curves: declined, (longest edge %r / cost %r)^%d exceeds sqrt(n) = %r",
            longest, radius, m, math.sqrt(n),
        )
        return CoresetFailure(longest, radius, math.sqrt(n))

    cover = radius * (1.0 + _COVER_SLACK)
    cell = eps * radius / (6.0 * math.sqrt(d))
    grids = []
    for a, b in edges:
        direction = b - a
        length = float(np.linalg.norm(direction))
        if length == 0.0:
            angles = (0.0,) * (d - 1)
        else:
            found, _ = align_to_last_axis(direction)
            angles = tuple(found)
        motion = Motion(shift=tuple(-a), angles=angles)
        segments = math.ceil(1.0 + length / (2.0 * cover))
        for s in range(1, segments + 1):
            center = np.zeros(d)
            center[-1] = (s - 1) * 2.0 * cover
            grids.append(Grid(Cube(tuple(center), 2.0 * cover), cell, motion))

    chosen = {}
    order = []
    for i, t in enumerate(padded):
        sig = []
        for v in t.vertices:
            hit = None
            for gi, g in enumerate(grids):
                cid = grid_cell_of(g, v)
                if cid is not None:
                    hit = (gi, cid)
                    break
            if hit is None:
                raise RuntimeError("curve vertex escaped every grid")
            sig.append(hit)
        key = tuple(sig)
        if key not in chosen:
            chosen[key] = i
            order.append(i)
    meta.update(
        member_indices=order,
        cell_length=cell,
        longest_edge=longest,
        grid_count=len(grids),
        cells_per_side=grids[0].cells_per_side,
    )
    return WeightedCoreset([curves[i] for i in order], np.ones(len(order)), eps, meta)


@dataclass
class SamplingDistribution:
    """Per-curve sampling law for the sum-of-distances objective.

    ``sensitivities`` bounds, curve by curve, the share of any
    candidate's cost that the curve can be responsible for;
    ``probabilities`` is the same vector scaled to total mass one, and
    ``normalizer`` is the scaling constant (the mean sensitivity).
    ``cumulative`` supports binary-search draws.
    """

    probabilities: np.ndarray
    sensitivities: np.ndarray
    normalizer: float
    cumulative: np.ndarray
    clustering: Clustering
    degenerate: bool = False


def sampling_distribution(T, k: int) -> SamplingDistribution:
    """Sensitivity-based sampling law from a local-search clustering.

    A curve's sensitivity adds a term for how far it sits from its
    cluster center, relative to the average, and a term for how small
    its cluster is. A family whose clustering cost is zero gets the
    uniform law.
    """
    curves = list(T)
    n = len(curves)
    if n < 1:
        raise ValueError("cannot sample from an empty family")
    clust = k_median_approx(curves, k)
    M = clust.meta["distances"]
    centers = np.asarray(clust.meta["center_indices"])
    assign = np.asarray(clust.assignment)
    to_center = M[np.arange(n), centers[assign]]
    total = float(to_center.sum())
    sizes = np.bincount(assign, minlength=len(centers))
    sums = np.bincount(assign, weights=to_center, minlength=len(centers))
    means = sums / np.maximum(sizes, 1)
    scale = total / (6.0 * n)
    degenerate = total <= 0.0
    if degenerate:
        log.info("sampling law: clustering cost is 0, using the uniform law")
        sens = np.ones(n)
    else:
        sens = (2.0 * means[assign] + to_center) / (0.75 * scale) + 8.0 * n / sizes[assign]
    normalizer = float(sens.mean())
    probabilities = sens / (n * normalizer)
    return SamplingDistribution(
        probabilities=probabilities,
        sensitivities=sens,
        normalizer=normalizer,
        cumulative=np.cumsum(probabilities),
        clustering=clust,
        degenerate=degenerate,
    )


def _check_accuracy(eps: float, rho: float):
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be in (0, 1)")


def sample_size(n: int, k: int, eps: float, rho: float = 1.0 / 3.0) -> int:
    """Number of draws that makes the sampled cost reliable for every candidate."""
    if n < 2:
        raise ValueError("need at least two curves")
    _check_accuracy(eps, rho)
    return math.ceil(
        640.0 * (-math.log(rho) + math.log(2.0)) * k * k * math.log(n) / (eps * eps)
    )


def draw_sample(dist: SamplingDistribution, size: int, seed) -> np.ndarray:
    """Indices of ``size`` independent draws from the sampling law.

    One uniform variate per draw, consumed in order from a fresh
    generator seeded with ``seed``; a draw maps to the first index
    whose cumulative mass exceeds it.
    """
    if size < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    u = rng.random(size)
    idx = np.searchsorted(dist.cumulative, u, side="right")
    return np.minimum(idx, len(dist.cumulative) - 1)


def median_coreset(
    T, eps: float, k: int, rho: float = 1.0 / 3.0, seed=0
) -> WeightedCoreset:
    """Sampling coreset for the sum-of-distances objective.

    Draws with replacement from the sensitivity law and weights each
    draw by the inverse of its expected pick count, so the weighted
    coreset cost of any candidate matches the full cost in
    expectation. Repeated draws stay separate members. With
    probability at least 1 - ``rho`` the relative error is below
    ``eps`` for every candidate set of k input curves.
    """
    _check_accuracy(eps, rho)
    curves = list(T)
    n = len(curves)
    dist = sampling_distribution(curves, k)
    meta = {
        "variant": "median",
        "k": k,
        "rho": rho,
        "seed": seed,
        "distribution": dist,
    }
    if dist.degenerate:
        # every curve sits on its center; one curve at full weight is exact
        meta["member_indices"] = np.zeros(1, dtype=int)
        meta["sample_size"] = 1
        return WeightedCoreset([curves[0]], np.full(1, float(n)), eps, meta)
    size = sample_size(n, k, eps, rho)
    idx = draw_sample(dist, size, seed)
    weights = 1.0 / (size * dist.probabilities[idx])
    meta["member_indices"] = idx
    meta["sample_size"] = size
    return WeightedCoreset([curves[i] for i in idx], weights, eps, meta)
