"""Instance builders shared across the test modules."""

import numpy as np

from curveclust import Curve, CurveSet
from curveclust.frechet import DEFAULT_REL_TOL, _FreeSpace, frechet_distance


def random_curve(rng, m, d, scale=5.0):
    return Curve(rng.normal(0.0, scale, (m, d)))


def random_segments(rng, n, d, scale=5.0):
    return [random_curve(rng, 2, d, scale) for _ in range(n)]


def clustered_segments(rng, n, d, k, spread=40.0, jitter=0.5):
    """Segments in k well-separated groups; group g owns indices g mod k."""
    anchors = rng.uniform(-spread, spread, (k, d))
    dirs = rng.normal(0.0, 2.0, (k, d))
    out = []
    for i in range(n):
        g = i % k
        a = anchors[g] + rng.normal(0.0, jitter, d)
        b = anchors[g] + dirs[g] + rng.normal(0.0, jitter, d)
        out.append(Curve(np.vstack([a, b]), label=f"s{i}"))
    return CurveSet(out)


def clustered_curves(rng, n, m, d, k, spread=40.0, jitter=0.3, step=0.8):
    """Short-edged curves in k well-separated groups."""
    anchors = rng.uniform(-spread, spread, (k, d))
    templates = []
    for g in range(k):
        steps = rng.normal(0.0, step, (m - 1, d))
        templates.append(np.vstack([anchors[g], anchors[g] + np.cumsum(steps, axis=0)]))
    out = []
    for i in range(n):
        g = i % k
        out.append(Curve(templates[g] + rng.normal(0.0, jitter, (m, d)), label=f"t{i}"))
    return CurveSet(out)


def decide_calls(pairs, rel_tol=DEFAULT_REL_TOL) -> int:
    """Threshold decisions ``frechet_distance`` takes over ``pairs``."""
    calls = 0
    real = _FreeSpace.decide

    def counted(self, delta):
        nonlocal calls
        calls += 1
        return real(self, delta)

    _FreeSpace.decide = counted
    try:
        for a, b in pairs:
            frechet_distance(a, b, rel_tol)
    finally:
        _FreeSpace.decide = real
    return calls
