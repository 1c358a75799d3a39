import math

import hypothesis as hyp
import hypothesis.strategies as hys
import numpy as np
import pytest

from curveclust import Curve, Motion, pad_to_complexity
from curveclust.frechet import (
    DEFAULT_REL_TOL,
    _frechet_batch,
    discrete_frechet,
    frechet_decision,
    frechet_distance,
    simplify,
)
from curveclust.oracle import exhaustive_simplify_value, subdivided_frechet_bounds

from util import decide_calls, random_curve


def seg(a, b):
    return Curve([a, b])


def test_segment_frechet_values():
    # for single edges the bracket starts collapsed at the endpoint maximum
    assert frechet_distance(seg([0.0, 0.0], [1.0, 0.0]), seg([0.0, 1.0], [1.0, 1.0])).value == 1.0
    assert frechet_distance(seg([0.0], [4.0]), seg([0.0], [1.0])).value == 3.0
    s = seg([2.0, 2.0], [3.0, 5.0])
    assert frechet_distance(s, s).value == 0.0


def test_segment_formula_matches_bisection():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = random_curve(rng, 2, 2), random_curve(rng, 2, 2)
        r = frechet_distance(a, b)
        ends = max(
            np.linalg.norm(a.vertices[0] - b.vertices[0]),
            np.linalg.norm(a.vertices[1] - b.vertices[1]),
        )
        assert abs(r.value - ends) <= 1e-7


def test_discrete_values():
    a = Curve([[0.0, 0.0], [2.0, 0.0]])
    b = Curve([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    assert discrete_frechet(a, a) == 0.0
    assert discrete_frechet(a, b) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    shifted = Curve(a.vertices + [0.0, 1.0])
    assert discrete_frechet(a, shifted) == 1.0


def test_discrete_dominates_continuous():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = random_curve(rng, int(rng.integers(2, 7)), 2)
        b = random_curve(rng, int(rng.integers(2, 7)), 2)
        r = frechet_distance(a, b)
        assert r.upper <= discrete_frechet(a, b) + 1e-7


def test_decision_boundary_cases():
    a = Curve([[0.0, 0.0], [2.0, 0.0]])
    b = Curve([[0.0, 1.0], [2.0, 1.0]])
    assert frechet_decision(a, b, 1.0)
    assert not frechet_decision(a, b, 0.999999)
    assert frechet_decision(a, a, 0.0)
    assert frechet_decision(a, b, math.inf)
    for bad in (-0.5, math.nan):
        with pytest.raises(ValueError):
            frechet_decision(a, b, bad)


def test_decision_needs_backtracking_free_space():
    # both curves sweep the same channel; a monotone traversal exists
    # only for generous thresholds
    a = Curve([[0.0, 0.0], [4.0, 0.0]])
    b = Curve([[0.0, 0.5], [4.0, 0.5], [0.0, 1.0], [4.0, 1.5]])
    r = frechet_distance(a, b)
    assert frechet_decision(a, b, r.upper + 1e-6)
    assert not frechet_decision(a, b, max(r.lower - 1e-6, 0.0))
    # the backward sweep forces the distance up to roughly the span
    assert r.value > 1.5


def test_distance_apex_case():
    a = Curve([[0.0, 0.0], [2.0, 0.0]])
    b = Curve([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    r = frechet_distance(a, b)
    assert r.value == pytest.approx(1.0, abs=1e-8)
    assert r.lower <= r.value <= r.upper


def test_distance_of_identical_and_padded():
    rng = np.random.default_rng(8)
    c = random_curve(rng, 5, 3)
    assert frechet_distance(c, c).value == 0.0
    assert frechet_distance(c, pad_to_complexity(c, 8)).value <= 1e-9


def test_bracket_invariants():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = random_curve(rng, int(rng.integers(2, 8)), 2)
        b = random_curve(rng, int(rng.integers(2, 8)), 2)
        r = frechet_distance(a, b)
        assert r.lower <= r.value <= r.upper
        assert r.upper - r.lower <= r.tolerance * max(1.0, r.upper)
        lb = max(
            np.linalg.norm(a.vertices[0] - b.vertices[0]),
            np.linalg.norm(a.vertices[-1] - b.vertices[-1]),
        )
        assert r.value >= lb - 1e-12


def test_decision_consistent_with_bracket():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = random_curve(rng, 4, 2)
        b = random_curve(rng, 5, 2)
        r = frechet_distance(a, b)
        assert frechet_decision(a, b, r.upper + 1e-6)
        if r.lower - 1e-6 > 0:
            assert not frechet_decision(a, b, r.lower - 1e-6)


def test_metric_sanity():
    rng = np.random.default_rng(14)
    for _ in range(30):
        a = random_curve(rng, 4, 2)
        b = random_curve(rng, 4, 2)
        c = random_curve(rng, 3, 2)
        ab = frechet_distance(a, b).value
        ba = frechet_distance(b, a).value
        assert ab == pytest.approx(ba, abs=1e-8 * (1.0 + ab))
        ac = frechet_distance(a, c).value
        cb = frechet_distance(c, b).value
        assert ab <= ac + cb + 1e-7


def test_tighter_tolerance_narrows_bracket():
    a = Curve([[0.0, 0.0], [3.0, 0.5], [6.0, 0.0]])
    b = Curve([[0.0, 1.0], [2.0, 1.8], [6.0, 1.0]])
    wide = frechet_distance(a, b, rel_tol=1e-3)
    tight = frechet_distance(a, b, rel_tol=1e-12)
    assert tight.upper - tight.lower <= wide.upper - wide.lower
    assert wide.lower - 1e-12 <= tight.value <= wide.upper + 1e-12
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            frechet_distance(a, b, rel_tol=bad)


def test_simplify_short_input_unchanged():
    c = Curve([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    assert simplify(c, 3) is c
    assert simplify(c, 5) is c


def test_simplify_collinear_run():
    c = Curve([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    s = simplify(c, 2)
    assert s.vertices.tolist() == [[0.0, 0.0], [4.0, 0.0]]
    assert discrete_frechet(s, c) == 2.0


def test_simplify_keeps_ends_and_subsequence():
    rng = np.random.default_rng(15)
    for _ in range(30):
        c = random_curve(rng, 9, 2)
        for budget in (2, 3, 4):
            s = simplify(c, budget)
            assert len(s) <= budget
            assert np.array_equal(s.vertices[0], c.vertices[0])
            assert np.array_equal(s.vertices[-1], c.vertices[-1])
            rows = {tuple(v) for v in c.vertices.tolist()}
            assert all(tuple(v) in rows for v in s.vertices.tolist())


def test_simplify_matches_exhaustive_search():
    rng = np.random.default_rng(16)
    for _ in range(25):
        m = int(rng.integers(5, 10))
        c = random_curve(rng, m, 2)
        for budget in (2, 3, 4):
            got = discrete_frechet(simplify(c, budget), c)
            want = exhaustive_simplify_value(c, budget)
            assert got == pytest.approx(want, abs=1e-12)


def test_simplify_rejects_tiny_budget():
    with pytest.raises(ValueError):
        simplify(Curve([[0.0], [1.0], [2.0]]), 1)


def test_in_ball():
    # membership in the ball of radius 1 around a center is the decision at 1
    center = Curve([[0.0, 0.0], [4.0, 0.0]])
    assert frechet_decision(center, Curve([[0.0, 0.5], [4.0, 0.5]]), 1.0)
    assert frechet_decision(center, Curve([[0.0, 1.0], [4.0, 1.0]]), 1.0)
    assert not frechet_decision(center, Curve([[0.0, 1.1], [4.0, 1.1]]), 1.0)
    with pytest.raises(ValueError):
        frechet_decision(center, center, -1.0)


@hyp.given(
    m=hys.integers(2, 8),
    q=hys.integers(2, 8),
    d=hys.integers(1, 2),
    seed=hys.integers(0, 2**32 - 1),
)
@hyp.settings(max_examples=60, deadline=None)
def test_continuous_distance_is_bitwise_symmetric(m, q, d, seed):
    # the pairwise table solves each unordered pair once and reuses it
    # for both orders, which is only exact if the argument order is moot
    rng = np.random.default_rng(seed)
    a, b = random_curve(rng, m, d), random_curve(rng, q, d)
    ab, ba = frechet_distance(a, b), frechet_distance(b, a)
    assert (ab.value, ab.lower, ab.upper) == (ba.value, ba.lower, ba.upper)


@hyp.given(
    m=hys.integers(2, 6),
    q=hys.integers(2, 6),
    d=hys.integers(1, 2),
    seed=hys.integers(0, 2**32 - 1),
)
@hyp.settings(max_examples=40, deadline=None)
def test_continuous_bracket_meets_the_subdivided_reference(m, q, d, seed):
    # the subdivided discrete distance shares no code with the free-space
    # solver, so overlapping brackets check the solver independently
    rng = np.random.default_rng(seed)
    a, b = random_curve(rng, m, d, scale=1.0), random_curve(rng, q, d, scale=1.0)
    r = frechet_distance(a, b)
    lo, hi = subdivided_frechet_bounds(a, b, 0.05)
    assert r.lower <= hi + 1e-9
    assert r.upper >= lo - 1e-9


_pairs = dict(
    m=hys.integers(2, 6),
    q=hys.integers(2, 6),
    d=hys.integers(1, 3),
    seed=hys.integers(0, 2**32 - 1),
)


@hyp.given(**_pairs)
@hyp.settings(max_examples=60, deadline=None)
def test_continuous_value_is_at_most_the_discrete_distance(m, q, d, seed):
    # the discrete distance opens the bracket as its upper end; it can
    # only be undercut by rounding, in which case the bracket collapses
    # onto the endpoint bound computed from the same vertices
    rng = np.random.default_rng(seed)
    a, b = random_curve(rng, m, d), random_curve(rng, q, d)
    dd = discrete_frechet(a, b)
    assert frechet_distance(a, b).value <= dd + 1e-12 * max(1.0, dd)


@hyp.given(extra=hys.integers(1, 4), **_pairs)
@hyp.settings(max_examples=40, deadline=None)
def test_distance_is_unchanged_by_padding(m, q, d, seed, extra):
    # padded clones sit on the start vertex; both brackets have width at
    # most 1e-9 * max(1, upper) around the same distance
    rng = np.random.default_rng(seed)
    a, b = random_curve(rng, m, d), random_curve(rng, q, d)
    r0 = frechet_distance(a, b)
    r1 = frechet_distance(pad_to_complexity(a, m + extra), b)
    assert abs(r1.value - r0.value) <= 2e-9 * max(1.0, r0.upper)


@hyp.given(
    shift=hys.lists(hys.floats(-10.0, 10.0), min_size=3, max_size=3),
    angles=hys.lists(hys.floats(-math.pi, math.pi), min_size=2, max_size=2),
    **_pairs,
)
@hyp.settings(max_examples=40, deadline=None)
def test_distance_is_unchanged_by_a_rigid_motion(m, q, d, seed, shift, angles):
    # moving both curves perturbs coordinates by rounding only, so the
    # distance moves by the bracket width plus a few ulps of the scale:
    # allowed 1e-8 * (1 + distance)
    rng = np.random.default_rng(seed)
    a, b = random_curve(rng, m, d), random_curve(rng, q, d)
    motion = Motion(shift=tuple(shift[:d]), angles=tuple(angles[: d - 1]))

    def moved(c):
        return Curve([motion.transform(v) for v in c.vertices])

    r0 = frechet_distance(a, b).value
    r1 = frechet_distance(moved(a), moved(b)).value
    assert abs(r1 - r0) <= 1e-8 * (1.0 + r0)


@hyp.given(
    lo=hys.floats(0.0, 1.5),
    hi=hys.floats(0.0, 1.5),
    **_pairs,
)
@hyp.settings(max_examples=60, deadline=None)
def test_decision_is_monotone_in_delta(m, q, d, seed, lo, hi):
    # thresholds are drawn relative to the discrete distance so that
    # both sides of the continuous distance are hit
    rng = np.random.default_rng(seed)
    a, b = random_curve(rng, m, d), random_curve(rng, q, d)
    lo, hi = sorted((lo, hi))
    dd = discrete_frechet(a, b)
    if frechet_decision(a, b, lo * dd):
        assert frechet_decision(a, b, hi * dd)


@hyp.given(
    m=hys.integers(2, 9),
    q=hys.integers(2, 9),
    d=hys.integers(1, 3),
    count=hys.integers(1, 40),
    rel_tol=hys.sampled_from([DEFAULT_REL_TOL, 1e-3, 1e-17]),
    seed=hys.integers(0, 2**32 - 1),
)
@hyp.settings(max_examples=40, deadline=None)
def test_lockstep_bisection_matches_frechet_distance(m, q, d, count, rel_tol, seed):
    # frechet_distance is the per-pair reference. Shared endpoints start
    # most brackets far wider than their lower end, where the rounding of
    # the midpoint depends on how it is written; a tolerance below one ulp
    # drives pairs into the exhausted-bracket exit, which the default
    # tolerance never reaches
    rng = np.random.default_rng(seed)
    P = rng.normal(0.0, 1.0, (count, m, d))
    Q = rng.normal(0.0, 1.0, (count, q, d))
    Q[::2, [0, -1]] = P[::2, [0, -1]] + rng.normal(0.0, 0.1, (len(P[::2]), 2, d))
    if m == q:
        Q[1::4] = P[1::4] + rng.normal(0.0, 1e-7, P[1::4].shape)
    value, upper, steps = _frechet_batch(P, Q, rel_tol)
    for b in range(count):
        r = frechet_distance(P[b], Q[b], rel_tol)
        assert (r.value, r.upper) == (value[b], upper[b])
    assert steps.sum() == decide_calls(zip(P, Q), rel_tol)
