import itertools
import math

import numpy as np
import pytest

from curveclust import Curve
from curveclust import oracle as oracle_module
from curveclust.frechet import discrete_frechet, frechet_distance, simplify
from curveclust.oracle import (
    GuardError,
    all_center_subsets,
    brute_force_discrete_center,
    brute_force_discrete_median,
    coreset_sandwich_check,
    exhaustive_discrete_frechet,
    exhaustive_simplify_value,
    means_counterexample,
    random_center_subsets,
)
from curveclust.coresets import WeightedCoreset
from curveclust.clustering import PairwiseFrechet, cost

from util import random_curve, random_segments


def test_exhaustive_discrete_matches_dp():
    rng = np.random.default_rng(60)
    for _ in range(60):
        m = int(rng.integers(1, 8))
        q = int(rng.integers(1, 8))
        d = int(rng.integers(1, 4))
        a = random_curve(rng, m, d)
        b = random_curve(rng, q, d)
        assert exhaustive_discrete_frechet(a, b) == discrete_frechet(a, b)


def test_exhaustive_discrete_single_points():
    a = Curve([[0.0, 0.0]])
    b = Curve([[3.0, 4.0]])
    assert exhaustive_discrete_frechet(a, b) == 5.0


def test_exhaustive_discrete_guard():
    rng = np.random.default_rng(61)
    big = random_curve(rng, 8, 2)
    ok = random_curve(rng, 3, 2)
    with pytest.raises(GuardError):
        exhaustive_discrete_frechet(big, ok)
    with pytest.raises(GuardError):
        exhaustive_discrete_frechet(ok, big)


def test_exhaustive_discrete_dimension_mismatch():
    with pytest.raises(ValueError):
        exhaustive_discrete_frechet(Curve([[0.0], [1.0]]), Curve([[0.0, 0.0], [1.0, 1.0]]))


def test_exhaustive_simplify_bounds_and_guards():
    rng = np.random.default_rng(62)
    c = random_curve(rng, 5, 2)
    assert exhaustive_simplify_value(c, 5) == 0.0
    assert exhaustive_simplify_value(c, 6) == 0.0
    with pytest.raises(GuardError):
        exhaustive_simplify_value(random_curve(rng, 13, 2), 3)
    with pytest.raises(ValueError):
        exhaustive_simplify_value(c, 1)


def test_exhaustive_simplify_matches_dp_target():
    rng = np.random.default_rng(63)
    for _ in range(10):
        c = random_curve(rng, 8, 2)
        want = exhaustive_simplify_value(c, 3)
        got = simplify(c, 3)
        assert discrete_frechet(got, c) == pytest.approx(want, abs=1e-12)


def test_brute_force_center_zero_at_k_equals_n():
    rng = np.random.default_rng(64)
    T = random_segments(rng, 3, 2)
    rep = brute_force_discrete_center(T, 3)
    assert rep.optimal_value == 0.0
    assert rep.exact
    assert rep.optimal_argument == (0, 1, 2)


def test_brute_force_handles_duplicates():
    seg = Curve([[0.0, 0.0], [1.0, 0.0]])
    far = Curve([[9.0, 9.0], [10.0, 9.0]])
    rep = brute_force_discrete_center([seg, seg, far], 2)
    assert rep.optimal_value == 0.0
    assert far in ([seg, seg, far][i] for i in rep.optimal_argument)


def test_brute_force_median_vs_center_ordering():
    rng = np.random.default_rng(65)
    T = random_segments(rng, 8, 2)
    cen = brute_force_discrete_center(T, 2)
    med = brute_force_discrete_median(T, 2)
    # max of nearest <= sum of nearest for the winning subsets
    assert cen.optimal_value <= med.optimal_value + 1e-9


def test_brute_force_guards():
    rng = np.random.default_rng(66)
    with pytest.raises(GuardError):
        brute_force_discrete_center(random_segments(rng, 15, 2), 2)
    with pytest.raises(GuardError):
        brute_force_discrete_center(random_segments(rng, 8, 2), 4)
    with pytest.raises(ValueError):
        brute_force_discrete_center(random_segments(rng, 4, 2), 0)
    with pytest.raises(ValueError):
        brute_force_discrete_center(random_segments(rng, 4, 2), 5)


def test_oracle_report_against():
    rng = np.random.default_rng(67)
    T = random_segments(rng, 6, 2)
    rep = brute_force_discrete_center(T, 2)
    tagged = rep.against(2.0 * rep.optimal_value)
    assert tagged.ratio == pytest.approx(2.0)
    assert tagged.target_value == pytest.approx(2.0 * rep.optimal_value)
    zero = brute_force_discrete_center([T[0], T[0]], 1)
    assert zero.against(0.0).ratio is None


def test_all_center_subsets_counts_and_limit():
    got = list(all_center_subsets(5, 2))
    assert got == list(itertools.combinations(range(5), 2))
    assert len(got) == math.comb(5, 2)
    with pytest.raises(GuardError):
        all_center_subsets(20, 3, limit=100)


def test_random_center_subsets_shape_and_determinism():
    a = random_center_subsets(10, 3, 20, 7)
    b = random_center_subsets(10, 3, 20, 7)
    assert a == b
    for s in a:
        assert len(s) == 3
        assert len(set(s)) == 3
        assert s == tuple(sorted(s))


@pytest.mark.parametrize("k", [0, 11])
def test_random_center_subsets_rejects_k_outside_the_input(k):
    with pytest.raises(ValueError, match=f"got {k}"):
        random_center_subsets(10, k, 5, 7)


def _two_far_groups(rng, per_group=5, gap=100.0):
    near = [Curve(rng.normal(0.0, 0.5, (2, 2)), label=f"a{i}") for i in range(per_group)]
    far = [
        Curve(rng.normal(0.0, 0.5, (2, 2)) + [gap, 0.0], label=f"b{i}")
        for i in range(per_group)
    ]
    return near + far


def test_sandwich_passes_on_identity_coreset():
    rng = np.random.default_rng(68)
    T = _two_far_groups(rng)
    core = WeightedCoreset(
        list(T), np.ones(len(T)), 0.25, {"member_indices": list(range(len(T)))}
    )
    M = PairwiseFrechet(list(T)).values()
    cands = random_center_subsets(len(T), 2, 25, 3)
    for kind in ("center", "median"):
        rep = coreset_sandwich_check(T, core, 0.25, cands, kind, distances=M)
        assert rep.passed
        assert rep.checked == 25
        assert rep.worst_margin <= 0.0


def test_sandwich_flags_truncated_coreset():
    rng = np.random.default_rng(69)
    T = _two_far_groups(rng)
    core = WeightedCoreset(T[:5], np.ones(5), 0.25, {"member_indices": list(range(5))})
    M = PairwiseFrechet(list(T)).values()
    rep = coreset_sandwich_check(T, core, 0.25, [(0,)], "center", distances=M)
    assert not rep.passed
    assert rep.violations
    assert rep.worst_margin > 0.0
    bad = rep.violations[0]
    assert bad["coreset"] < (1.0 - 0.25) * bad["full"]


def test_sandwich_fast_and_generic_paths_agree():
    rng = np.random.default_rng(70)
    T = _two_far_groups(rng, per_group=3)
    core = WeightedCoreset(
        [T[0], T[3]], np.array([3.0, 3.0]), 0.5, {"member_indices": [0, 3]}
    )
    M = PairwiseFrechet(list(T)).values()
    idx_cands = [(0, 3), (1, 4), (2, 5)]
    curve_cands = [[T[i] for i in c] for c in idx_cands]
    fast = coreset_sandwich_check(T, core, 0.5, idx_cands, "median", distances=M)
    slow = coreset_sandwich_check(T, core, 0.5, curve_cands, "median")
    for a, b in zip(fast.records, slow.records):
        assert a["full"] == pytest.approx(b["full"], abs=1e-9)
        assert a["coreset"] == pytest.approx(b["coreset"], abs=1e-9)


def test_sandwich_solves_every_on_the_fly_candidate(monkeypatch):
    # each candidate is built and dropped in turn, so new curves reuse the
    # ids of freed ones; a cache keyed by identity would return stale costs.
    # Three vertices keep these pairs off the closed-form segment path.
    rng = np.random.default_rng(72)
    T = [random_curve(rng, 3, 2) for _ in range(5)]
    core = WeightedCoreset(list(T), np.ones(5), 0.5, {"member_indices": list(range(5))})
    tables = []

    class Recorded(PairwiseFrechet):
        def __init__(self, curves):
            super().__init__(curves)
            tables.append(self)

    monkeypatch.setattr(oracle_module, "PairwiseFrechet", Recorded)

    def fresh():
        for _ in range(200):
            yield [Curve(rng.normal(0.0, 5.0, (3, 2)))]

    rep = coreset_sandwich_check(T, core, 0.5, fresh(), "median")
    assert rep.checked == 200
    [table] = tables
    solves = table.stats["closed_form"] + table.stats["bisected"]
    assert solves == 5 * 200


def test_sandwich_costs_every_on_the_fly_segment_candidate():
    # the segment twin of the test above: segment columns are filled in
    # closed form, so the check is that every record carries the cost of
    # its own candidate, recomputed on a fresh table
    rng = np.random.default_rng(72)
    T = random_segments(rng, 5, 2)
    core = WeightedCoreset(list(T), np.ones(5), 0.5, {"member_indices": list(range(5))})

    def fresh():
        for _ in range(200):
            yield [Curve(rng.normal(0.0, 5.0, (2, 2)))]

    rep = coreset_sandwich_check(T, core, 0.5, fresh(), "median")
    assert rep.checked == 200
    for rec in rep.records:
        want = cost(T, list(rec["candidate"]), "median")
        assert rec["full"] == want
        assert rec["coreset"] == want


def test_sandwich_measures_members_that_differ_from_their_inputs():
    rng = np.random.default_rng(73)
    T = _two_far_groups(rng)
    moved = [Curve(c.vertices + 1000.0) for c in T]
    core = WeightedCoreset(
        moved, np.ones(len(T)), 0.25, {"member_indices": list(range(len(T)))}
    )
    M = PairwiseFrechet(list(T)).values()
    cands = random_center_subsets(len(T), 2, 10, 4)
    for kind in ("center", "median"):
        for distances in (None, M):
            rep = coreset_sandwich_check(T, core, 0.25, cands, kind, distances=distances)
            assert not rep.passed
            assert len(rep.violations) == 10


def test_sandwich_rejects_unknown_kind():
    seg = Curve([[0.0, 0.0], [1.0, 0.0]])
    core = WeightedCoreset([seg], np.ones(1), 0.5, {"member_indices": [0]})
    with pytest.raises(ValueError):
        coreset_sandwich_check([seg], core, 0.5, [(0,)], "means")


def test_sandwich_rejects_out_of_range_eps_and_empty_candidates():
    # an eps of 100 would bracket almost any coreset cost, and no
    # candidates at all would pass without checking anything
    seg = Curve([[0.0, 0.0], [1.0, 0.0]])
    core = WeightedCoreset([seg], np.ones(1), 0.5, {"member_indices": [0]})
    for eps in (0.0, 1.0, 100.0, -0.5):
        with pytest.raises(ValueError, match="eps"):
            coreset_sandwich_check([seg], core, eps, [(0,)])
    for cands in ([], [()]):
        with pytest.raises(ValueError, match="candidate"):
            coreset_sandwich_check([seg], core, 0.5, cands)


def test_means_counterexample_costs():
    ex = means_counterexample()
    assert ex.centroid_cost == pytest.approx(421.0, abs=1e-6)
    assert ex.split_cost == pytest.approx(400.0, abs=1e-6)
    assert ex.split_cost < ex.centroid_cost
    assert len(ex.curves) == 4
    assert len(ex.centroid_center) == 2
    assert len(ex.split_center) == 2


def test_means_counterexample_centroid_is_pointwise_optimal():
    # the per-vertex centroid minimizes the summed squared vertex
    # distances, which is exactly what makes its defeat instructive
    ex = means_counterexample()
    starts = np.array([c.start for c in ex.curves])
    ends = np.array([c.end for c in ex.curves])
    rng = np.random.default_rng(71)
    mu0, mu1 = ex.centroid_center.vertices
    base = ((starts - mu0) ** 2).sum() + ((ends - mu1) ** 2).sum()
    for _ in range(100):
        p0 = mu0 + rng.normal(0.0, 2.0, 2)
        p1 = mu1 + rng.normal(0.0, 2.0, 2)
        alt = ((starts - p0) ** 2).sum() + ((ends - p1) ** 2).sum()
        assert base <= alt + 1e-9
