import logging
import math

import numpy as np
import pytest

from curveclust import Curve, CurveSet
from curveclust.clustering import PairwiseFrechet
from curveclust.coresets import (
    CoresetFailure,
    WeightedCoreset,
    center_coreset_curves,
    center_coreset_segments,
    draw_sample,
    median_coreset,
    sample_size,
    sampling_distribution,
)
from curveclust.oracle import coreset_sandwich_check, random_center_subsets

from util import clustered_curves, clustered_segments


def test_weighted_coreset_validation():
    c = Curve([[0.0], [1.0]])
    with pytest.raises(ValueError):
        WeightedCoreset([c], [1.0, 2.0], 0.5)
    with pytest.raises(ValueError):
        WeightedCoreset([c], [0.0], 0.5)
    with pytest.raises(ValueError):
        WeightedCoreset([], [], 0.5)


def test_segment_coreset_identical_family_collapses():
    seg = Curve([[0.0, 0.0], [1.0, 1.0]])
    core = center_coreset_segments([seg] * 9, 0.5, 2)
    assert len(core) == 1
    assert core.meta["member_indices"] == [0]
    assert core.meta["degenerate"]
    assert core.weights[0] == 1.0


def test_segment_coreset_representatives_are_close():
    rng = np.random.default_rng(40)
    cs = clustered_segments(rng, 80, 2, 3, jitter=0.4)
    core = center_coreset_segments(cs, 0.5, 3)
    radius = core.meta["approx_cost"]
    M = PairwiseFrechet(list(cs)).values()
    members = core.meta["member_indices"]
    assert members == sorted(members)
    nearest = M[:, members].min(axis=1)
    assert nearest.max() <= 0.5 * radius / 6.0 + 1e-7
    assert np.all(core.weights == 1.0)


def test_segment_coreset_cardinality_bound():
    rng = np.random.default_rng(41)
    cs = clustered_segments(rng, 60, 2, 2, jitter=0.5)
    eps, k, d = 0.5, 2, 2
    core = center_coreset_segments(cs, eps, k)
    bound = (2.0 ** (2 * d)) * (6.0 ** (2 * d)) * (d**d) * k / eps ** (2 * d)
    assert len(core) <= bound
    assert len(core) <= len(cs)


def test_segment_coreset_sandwich():
    rng = np.random.default_rng(42)
    cs = clustered_segments(rng, 50, 2, 2, jitter=0.3)
    core = center_coreset_segments(cs, 0.25, 2)
    M = PairwiseFrechet(list(cs)).values()
    cands = random_center_subsets(50, 2, 40, 7)
    report = coreset_sandwich_check(cs, core, 0.25, cands, "center", distances=M)
    assert report.passed
    assert report.checked == 40


def test_segment_coreset_rejects_nonsegments():
    tri = Curve([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        center_coreset_segments([tri, tri], 0.5, 1)
    seg = Curve([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        center_coreset_segments([seg], 1.5, 1)


def test_segment_coreset_deterministic():
    rng = np.random.default_rng(43)
    cs = clustered_segments(rng, 30, 2, 2)
    a = center_coreset_segments(cs, 0.5, 2)
    b = center_coreset_segments(cs, 0.5, 2)
    assert a.meta["member_indices"] == b.meta["member_indices"]


def test_curve_coreset_happy_path():
    rng = np.random.default_rng(44)
    cs = clustered_curves(rng, 40, 3, 2, 2, jitter=0.15, step=0.5)
    core = center_coreset_curves(cs, 0.5, 2, 3)
    assert isinstance(core, WeightedCoreset)
    radius = core.meta["approx_cost"]
    M = PairwiseFrechet(list(cs)).values()
    members = core.meta["member_indices"]
    assert members == sorted(members)
    nearest = M[:, members].min(axis=1)
    assert nearest.max() <= 0.5 * radius / 6.0 + 1e-7
    cands = random_center_subsets(40, 2, 25, 8)
    report = coreset_sandwich_check(cs, core, 0.5, cands, "center", distances=M)
    assert report.passed


def test_curve_coreset_mixed_complexity_pads():
    rng = np.random.default_rng(45)
    curves = [
        Curve(rng.normal(0.0, 0.2, (3, 2))),
        Curve(rng.normal(0.0, 0.2, (2, 2))),
        Curve(rng.normal(0.0, 0.2, (3, 2)) + 5.0),
        Curve(rng.normal(0.0, 0.2, (2, 2)) + 5.0),
    ]
    core = center_coreset_curves(curves, 0.5, 2, 3)
    assert isinstance(core, WeightedCoreset)
    # members come back unpadded
    sizes = {len(core.members[i]) for i in range(len(core))}
    assert sizes <= {2, 3}


def test_curve_coreset_declines_long_edges():
    rng = np.random.default_rng(46)
    base = np.array([[0.0, 0.0], [120.0, 0.0], [240.0, 0.0]])
    curves = [Curve(base + rng.normal(0.0, 0.005, (3, 2))) for _ in range(8)]
    res = center_coreset_curves(curves, 0.5, 1, 3)
    assert isinstance(res, CoresetFailure)
    assert res.longest_edge > res.approx_cost
    assert res.limit == pytest.approx(math.sqrt(8.0))


def test_curve_coreset_identical_family_collapses():
    tri = Curve([[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]])
    core = center_coreset_curves([tri] * 7, 0.25, 2, 3)
    assert isinstance(core, WeightedCoreset)
    assert len(core) == 1
    assert core.meta["degenerate"]


def test_curve_coreset_validation():
    seg = Curve([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        center_coreset_curves([seg, seg], 0.5, 1, 3)
    line = Curve([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        center_coreset_curves([line, line], 0.5, 1, 3)


def test_sampling_distribution_mass_and_positivity():
    rng = np.random.default_rng(47)
    for k in (1, 2, 3):
        cs = clustered_segments(rng, 25, 2, k)
        dist = sampling_distribution(cs, k)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        assert (dist.probabilities > 0.0).all()
        assert dist.cumulative[-1] == pytest.approx(1.0, abs=1e-9)
        assert (np.diff(dist.cumulative) >= 0.0).all()


def test_sampling_distribution_normalizer_identity():
    # the mean sensitivity collapses algebraically to 24 + 8k
    rng = np.random.default_rng(48)
    for k in (1, 2, 3):
        cs = clustered_segments(rng, 30, 2, k, jitter=1.0)
        dist = sampling_distribution(cs, k)
        assert dist.normalizer == pytest.approx(24.0 + 8.0 * k, rel=1e-9)


def test_sampling_distribution_literal_mass_k2():
    rng = np.random.default_rng(49)
    cs = clustered_segments(rng, 24, 2, 2)
    dist = sampling_distribution(cs, 2)
    n, k = 24, 2
    literal = dist.sensitivities / (32.0 * k)
    assert (literal / n).sum() == pytest.approx(5.0 / 8.0, abs=1e-12)


def test_sampling_distribution_degenerate_uniform():
    seg = Curve([[1.0, 1.0], [2.0, 2.0]])
    dist = sampling_distribution([seg] * 6, 2)
    assert dist.degenerate
    assert np.allclose(dist.probabilities, 1.0 / 6.0)


def test_constructions_log_their_decisions(caplog):
    seg = Curve([[1.0, 1.0], [2.0, 2.0]])
    tri = Curve([[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]])
    base = np.array([[0.0, 0.0], [120.0, 0.0], [240.0, 0.0]])
    rng = np.random.default_rng(46)
    long_edges = [Curve(base + rng.normal(0.0, 0.005, (3, 2))) for _ in range(8)]

    def build():
        center_coreset_segments([seg] * 4, 0.5, 1)
        center_coreset_curves([tri] * 4, 0.5, 1, 3)
        center_coreset_curves(long_edges, 0.5, 1, 3)
        sampling_distribution([seg] * 4, 1)

    build()
    assert not caplog.records  # nothing below WARNING by default
    caplog.set_level(logging.INFO, logger="curveclust")
    build()
    got = [(r.name, r.levelno, r.getMessage().split(":")[0]) for r in caplog.records]
    assert got == [
        ("curveclust", logging.INFO, "center-segments"),
        ("curveclust", logging.INFO, "center-curves"),
        ("curveclust", logging.INFO, "center-curves"),
        ("curveclust", logging.INFO, "sampling law"),
    ]
    assert "radius is 0" in caplog.records[1].getMessage()
    assert "declined" in caplog.records[2].getMessage()
    assert "uniform" in caplog.records[3].getMessage()


def test_expectation_preserved_exactly():
    rng = np.random.default_rng(50)
    cs = clustered_segments(rng, 20, 2, 2)
    dist = sampling_distribution(cs, 2)
    M = dist.clustering.meta["distances"]
    for cand in random_center_subsets(20, 2, 10, 3):
        near = M[:, cand].min(axis=1)
        plain = near.mean()
        reweighted = (dist.probabilities * (near / (20.0 * dist.probabilities))).sum()
        assert reweighted == pytest.approx(plain, abs=1e-9 * (1.0 + plain))


def test_estimator_variance_bounded():
    rng = np.random.default_rng(51)
    cs = clustered_segments(rng, 18, 2, 2)
    dist = sampling_distribution(cs, 2)
    M = dist.clustering.meta["distances"]
    n = 18
    for cand in random_center_subsets(n, 2, 10, 4):
        near = M[:, cand].min(axis=1)
        mean = near.mean()
        y = near / (n * dist.probabilities)
        var = float((dist.probabilities * (y - mean) ** 2).sum())
        assert var <= (dist.normalizer - 1.0) * mean * mean + 1e-9


def test_sample_size_fixture_and_monotonicity():
    assert sample_size(100, 2, 0.5, 1.0 / 3.0) == 84494
    assert sample_size(30, 2, 0.2, 1.0 / 3.0) == 390025
    assert sample_size(100, 2, 0.25) > sample_size(100, 2, 0.5)
    assert sample_size(100, 3, 0.5) > sample_size(100, 2, 0.5)
    with pytest.raises(ValueError):
        sample_size(1, 2, 0.5)
    with pytest.raises(ValueError):
        sample_size(100, 2, 1.5)


def test_draw_sample_deterministic_and_in_range():
    rng = np.random.default_rng(52)
    cs = clustered_segments(rng, 15, 2, 2)
    dist = sampling_distribution(cs, 2)
    a = draw_sample(dist, 1000, 77)
    b = draw_sample(dist, 1000, 77)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 15
    c = draw_sample(dist, 1000, 78)
    assert not np.array_equal(a, c)


def test_median_coreset_weights_and_duplicates():
    rng = np.random.default_rng(53)
    cs = clustered_segments(rng, 12, 2, 2)
    core = median_coreset(cs, 0.5, 2, seed=5)
    size = core.meta["sample_size"]
    assert size == sample_size(12, 2, 0.5)
    assert len(core) == size  # repeats stay separate members
    dist = core.meta["distribution"]
    idx = core.meta["member_indices"]
    assert np.allclose(core.weights, 1.0 / (size * dist.probabilities[idx]))
    # expected weight mass is the input size
    assert (dist.probabilities * (1.0 / dist.probabilities)).sum() == pytest.approx(12.0)


def test_median_coreset_deterministic_per_seed():
    rng = np.random.default_rng(54)
    cs = clustered_segments(rng, 10, 2, 2)
    a = median_coreset(cs, 0.5, 2, seed=9)
    b = median_coreset(cs, 0.5, 2, seed=9)
    assert np.array_equal(a.meta["member_indices"], b.meta["member_indices"])
    assert np.array_equal(a.weights, b.weights)


def test_median_coreset_degenerate_single_member():
    seg = Curve([[0.0, 0.0], [3.0, 0.0]])
    core = median_coreset([seg] * 8, 0.5, 2, seed=1)
    assert len(core) == 1
    assert core.weights[0] == 8.0


def test_median_coreset_checks_eps_and_rho_on_degenerate_input():
    # the degenerate family skips sampling, yet its coreset carries eps
    seg = Curve([[0.0, 0.0], [3.0, 0.0]])
    with pytest.raises(ValueError, match=r"eps must be in \(0, 1\)"):
        median_coreset([seg] * 4, 5.0, 1)
    with pytest.raises(ValueError, match=r"rho must be in \(0, 1\)"):
        median_coreset([seg] * 4, 0.5, 1, rho=0.0)


def test_median_coreset_estimates_cost():
    rng = np.random.default_rng(55)
    cs = clustered_segments(rng, 14, 2, 2, jitter=1.0)
    core = median_coreset(cs, 0.5, 2, seed=13)
    dist = core.meta["distribution"]
    M = dist.clustering.meta["distances"]
    idx = core.meta["member_indices"]
    agg = np.bincount(idx, weights=core.weights, minlength=14)
    for cand in random_center_subsets(14, 2, 8, 6):
        near = M[:, cand].min(axis=1)
        full = near.sum()
        est = float(agg @ near)
        assert abs(est - full) <= 0.5 * full + 1e-9
