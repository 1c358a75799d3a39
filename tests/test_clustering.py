import hypothesis as hyp
import hypothesis.strategies as hys
import numpy as np
import pytest

from curveclust import Curve, CurveSet, pad_to_complexity, simplify
from curveclust.clustering import (
    Clustering,
    Objective,
    PairwiseFrechet,
    cost,
    k_center_approx,
    k_median_approx,
    kl_center_approx,
)
from curveclust.frechet import frechet_distance
from curveclust.oracle import (
    brute_force_discrete_center,
    brute_force_discrete_median,
    subdivided_frechet_bounds,
)

from util import clustered_segments, decide_calls, random_curve, random_segments


def test_objective_validation():
    Objective("center", 1, 2)
    with pytest.raises(ValueError):
        Objective("minimax", 1, 2)
    with pytest.raises(ValueError):
        Objective("center", 0, 2)
    with pytest.raises(ValueError):
        Objective("center", 1, 1)


def test_nearest_center_prefers_lowest_index():
    t = Curve([[0.0, 0.0], [1.0, 0.0]])
    centers = [Curve([[0.0, 1.0], [1.0, 1.0]]), Curve([[0.0, -1.0], [1.0, -1.0]])]
    table = PairwiseFrechet([t])
    near, value, _ = table.nearest([table.add(c) for c in centers], [0])
    assert near.tolist() == [0]
    assert value[0] == pytest.approx(1.0, abs=1e-9)
    table = PairwiseFrechet([t])
    near, value, _ = table.nearest([table.add(c) for c in (centers[0], t, t)], [0])
    assert near.tolist() == [1]
    assert value[0] == 0.0
    with pytest.raises(ValueError):
        table.nearest([], [0])


def test_cost_kinds():
    a = Curve([[0.0, 0.0], [1.0, 0.0]])
    b = Curve([[0.0, 2.0], [1.0, 2.0]])
    center = Curve([[0.0, 1.0], [1.0, 1.0]])
    assert cost([a, b], [a, b], "center") == 0.0
    assert cost([a, b], [center], "center") == pytest.approx(1.0, abs=1e-9)
    assert cost([a, b], [center], "median") == pytest.approx(2.0, abs=1e-9)
    assert cost([a, b], [center], "means") == pytest.approx(2.0, abs=1e-8)
    with pytest.raises(ValueError):
        cost([a, b], [center], "mode")


def test_pairwise_table():
    rng = np.random.default_rng(2)
    curves = random_segments(rng, 6, 2)
    tb = PairwiseFrechet(curves)
    M = tb.values()
    assert M.shape == (6, 6)
    assert np.allclose(M, M.T)
    assert np.all(np.diag(M) == 0.0)


def test_pairwise_table_solves_each_pair_once():
    # partly filled columns must share entries both ways, so no pair is
    # solved twice; three vertices keep these pairs off the closed-form
    # segment path
    rng = np.random.default_rng(3)
    curves = [random_curve(rng, 3, 2) for _ in range(6)]
    tb = PairwiseFrechet(curves)
    tb.column(4, [0, 1])
    tb.column(2, range(6))
    M = tb.values()
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    assert tb.stats["closed_form"] + tb.stats["bisected"] == len(pairs)
    assert tb.stats["decisions"] == decide_calls([(curves[i], curves[j]) for i, j in pairs])
    assert np.array_equal(M, M.T)
    _assert_entries_are_frechet_distance(tb, range(6), range(6))


def test_pairwise_table_fills_each_segment_pair_once():
    # the segment twin of the test above: segment pairs close from their
    # starting bracket, and none takes a bisection step
    rng = np.random.default_rng(3)
    curves = random_segments(rng, 6, 2)
    tb = PairwiseFrechet(curves)
    tb.column(4, [0, 1])
    tb.column(2, range(6))
    M = tb.values()
    assert tb.stats["closed_form"] == len([(i, j) for i in range(6) for j in range(i + 1, 6)])
    assert tb.stats["bisected"] == tb.stats["decisions"] == tb.stats["rounds"] == 0
    assert np.array_equal(M, M.T)


def _assert_entries_are_frechet_distance(tb, cols, rows):
    # every entry, whichever path filled it, carries the bits of
    # frechet_distance on (lower position, higher position)
    for j in cols:
        _, value, upper = tb.nearest([j], rows)
        for i, v, u in zip(rows, value.tolist(), upper.tolist()):
            if i == j:
                assert (v, u) == (0.0, 0.0)
                continue
            r = frechet_distance(tb.curves[min(i, j)], tb.curves[max(i, j)])
            assert (v, u) == (r.value, r.upper)


@hyp.given(
    n=hys.integers(2, 5),
    added=hys.integers(0, 2),
    d=hys.integers(1, 3),
    seed=hys.integers(0, 2**32 - 1),
)
@hyp.settings(max_examples=30, deadline=None)
def test_segment_entries_match_frechet_distance_and_the_reference(n, added, d, seed):
    rng = np.random.default_rng(seed)
    curves = random_segments(rng, n, d, scale=1.0)
    tb = PairwiseFrechet(curves)
    cols = [tb.add(c) for c in random_segments(rng, added, d, scale=1.0)]
    rows = list(range(n))
    # a few row columns first, in random order, so later columns start
    # from entries mirrored into them
    for j in rng.permutation(n)[: n // 2].tolist():
        tb.column(j, rows[: j + 1])
    M = tb.values()
    assert np.array_equal(M, M.T)
    _assert_entries_are_frechet_distance(tb, rows + cols, rows)
    # the subdivided discrete distance shares no code with the closed form
    for j in rows + cols:
        for i in rows:
            if i != j:
                lo, hi = subdivided_frechet_bounds(tb.curves[i], tb.curves[j], 0.05)
                v = tb.column(j, [i])[0]
                assert lo - 1e-9 <= v <= hi + 1e-9


@hyp.given(
    lengths=hys.lists(hys.integers(2, 9), min_size=2, max_size=5),
    added=hys.lists(hys.integers(2, 9), max_size=2),
    d=hys.integers(1, 3),
    seed=hys.integers(0, 2**32 - 1),
)
@hyp.settings(max_examples=25, deadline=None)
def test_batched_entries_match_frechet_distance_and_the_reference(lengths, added, d, seed):
    # curves of mixed complexity in one fill, with a near duplicate, an
    # identical copy, zero-length edges from padding and rows that come
    # back as columns
    rng = np.random.default_rng(seed)
    curves = [random_curve(rng, m, d, scale=1.0) for m in lengths]
    first = curves[0].vertices
    curves.append(Curve(first + rng.normal(0.0, 1e-7, first.shape)))
    curves.append(Curve(first))
    curves.append(pad_to_complexity(curves[1], len(curves[1]) + 2))
    tb = PairwiseFrechet(curves)
    cols = [tb.add(random_curve(rng, m, d, scale=1.0)) for m in added]
    cols += [tb.add(curves[i]) for i in (0, len(curves) - 1)]
    rows = list(range(tb.n))
    tb.fill(cols + rows[::2], rows)
    M = tb.values()
    assert np.array_equal(M, M.T)
    _assert_entries_are_frechet_distance(tb, rows + cols, rows)
    pairs = sorted({(min(i, j), max(i, j)) for j in rows + cols for i in rows if i != j})
    assert tb.stats["closed_form"] + tb.stats["bisected"] == len(pairs)
    assert tb.stats["decisions"] == decide_calls(
        [(tb.curves[a], tb.curves[b]) for a, b in pairs]
    )
    # the subdivided discrete distance shares no code with the solver; the
    # value may sit half a bracket width above the true distance
    for a, b in pairs[:: max(1, len(pairs) // 6)]:
        lo, hi = subdivided_frechet_bounds(tb.curves[a], tb.curves[b], 0.1)
        _, value, upper = tb.nearest([b], [a])
        assert lo - 1e-9 <= value[0] <= hi + 1e-9 * max(1.0, upper[0])


def test_mixed_column_fills_segments_and_solves_the_rest():
    # segment and three-vertex rows against a segment column: one fill
    # closes the segment pairs and bisects only the six three-vertex ones
    rng = np.random.default_rng(4)
    curves = [random_curve(rng, 2 if i % 2 else 3, 2) for i in range(6)]
    tb = PairwiseFrechet(curves)
    added = tb.add(random_curve(rng, 2, 2))
    rows = list(range(6))
    tb.column(added, rows)
    tb.column(3, rows)
    # six three-vertex pairs and 3 + 2 segment pairs, each solved once
    assert tb.stats["closed_form"] + tb.stats["bisected"] == 6 + 3 + 2
    three = [(tb.curves[min(i, j)], tb.curves[max(i, j)]) for j in (added, 3) for i in (0, 2, 4)]
    assert tb.stats["decisions"] == decide_calls(three) > 0
    _assert_entries_are_frechet_distance(tb, [added, 3, 1, 0], rows)
    M = tb.values()
    assert np.array_equal(M, M.T)


def test_exact_ties_go_to_lowest_index():
    # 1-D segments have exact brackets, so these ties are exact too
    T = [Curve([[a], [a + 1.0]]) for a in (0.0, 5.0, -5.0, 2.5)]
    clust = k_center_approx(T, 3)
    assert clust.meta["center_indices"] == [0, 1, 2]
    assert clust.assignment == [0, 1, 2, 0]
    assert clust.cost == 2.5
    assert kl_center_approx(T, 3, 2).meta["picked_indices"] == [0, 1, 2]


def test_kl_center_k1_center_is_first_simplified():
    rng = np.random.default_rng(21)
    curves = [random_curve(rng, 6, 2) for _ in range(5)]
    clust = kl_center_approx(curves, 1, 3)
    want = simplify(curves[0], 3)
    assert np.array_equal(clust.centers[0].vertices, want.vertices)
    assert clust.objective == Objective("center", 1, 3)


def test_kl_center_covers_everyone_with_enough_centers():
    rng = np.random.default_rng(22)
    curves = [random_curve(rng, 3, 2) for _ in range(6)]
    clust = kl_center_approx(curves, 6, 3)
    assert clust.cost <= 1e-9
    assert sorted(clust.meta["picked_indices"]) == list(range(6))


def test_kl_center_radii_nonincreasing():
    rng = np.random.default_rng(24)
    cs = clustered_segments(rng, 16, 2, 4)
    clust = kl_center_approx(cs, 4, 2)
    radii = clust.meta["selection_radii"]
    for a, b in zip(radii, radii[1:]):
        assert b <= a + 1e-9
    assert clust.cost <= radii[-1] + 1e-9


def test_k_center_examples():
    rng = np.random.default_rng(25)
    curves = random_segments(rng, 7, 2)
    assert k_center_approx(curves, 7).cost == 0.0
    same = [curves[0]] * 5
    assert k_center_approx(same, 2).cost == 0.0
    with pytest.raises(ValueError):
        k_center_approx(curves, 8)


def test_k_center_within_factor_three():
    rng = np.random.default_rng(26)
    for _ in range(8):
        curves = random_segments(rng, 9, 2)
        k = int(rng.integers(1, 4))
        clust = k_center_approx(curves, k)
        report = brute_force_discrete_center(curves, k).against(clust.cost)
        if not report.exact:
            assert report.ratio <= 3.0 + 1e-9
        assert sorted(set(clust.meta["center_indices"])) == sorted(clust.meta["center_indices"])


def test_k_center_deterministic():
    rng = np.random.default_rng(27)
    curves = random_segments(rng, 10, 3)
    a = k_center_approx(curves, 3)
    b = k_center_approx(curves, 3)
    assert a.meta["center_indices"] == b.meta["center_indices"]
    assert a.assignment == b.assignment
    assert a.cost == b.cost


def test_k_median_seed_already_optimal_means_no_swaps():
    a = Curve([[0.0, 0.0], [1.0, 0.0]])
    b = Curve([[10.0, 0.0], [11.0, 0.0]])
    clust = k_median_approx([a, b, a, b], 2)
    assert clust.cost == 0.0
    assert clust.meta["swaps"] == []


def test_k_median_improves_on_seed_and_stops():
    rng = np.random.default_rng(28)
    cs = clustered_segments(rng, 12, 2, 2, jitter=1.5)
    clust = k_median_approx(cs, 2)
    n, k = 12, 2
    assert clust.cost <= clust.meta["seed_cost"] + 1e-9
    assert len(clust.meta["swaps"]) <= 3 * n * k - k
    # no single swap still beats the threshold
    M = clust.meta["distances"]
    C = clust.meta["center_indices"]
    margin = clust.meta["gamma"] * clust.meta["seed_cost"]
    for c in C:
        others = [x for x in C if x != c]
        for t in range(n):
            if t in C:
                continue
            cand = others + [t]
            cand_cost = M[:, cand].min(axis=1).sum()
            assert clust.cost - margin <= cand_cost + 1e-12


def test_k_median_within_factor_six():
    rng = np.random.default_rng(29)
    for _ in range(6):
        curves = random_segments(rng, 10, 2)
        k = int(rng.integers(1, 4))
        clust = k_median_approx(curves, k)
        report = brute_force_discrete_median(curves, k).against(clust.cost)
        if not report.exact:
            assert report.ratio <= 6.0 + 1e-9


def test_k_median_assignment_consistent():
    rng = np.random.default_rng(30)
    cs = clustered_segments(rng, 10, 3, 2)
    clust = k_median_approx(cs, 2)
    M = clust.meta["distances"]
    C = clust.meta["center_indices"]
    total = sum(M[i, C[a]] for i, a in enumerate(clust.assignment))
    assert clust.cost == pytest.approx(total, abs=1e-9)
    for i, a in enumerate(clust.assignment):
        best = min(M[i, c] for c in C)
        assert M[i, C[a]] <= best + 1e-9


def test_k_median_deterministic():
    rng = np.random.default_rng(31)
    cs = clustered_segments(rng, 11, 2, 3)
    a = k_median_approx(cs, 3)
    b = k_median_approx(cs, 3)
    assert a.meta["center_indices"] == b.meta["center_indices"]
    assert a.meta["swaps"] == b.meta["swaps"]
    assert a.cost == b.cost


def test_k_median_rejects_bad_arguments():
    rng = np.random.default_rng(32)
    curves = random_segments(rng, 4, 2)
    with pytest.raises(ValueError):
        k_median_approx(curves, 5)


def test_clustering_dataclass_holds_meta():
    obj = Objective("center", 1, 2)
    cl = Clustering([], [], 0.0, obj)
    assert cl.meta == {}
