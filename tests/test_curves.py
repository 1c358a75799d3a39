import numpy as np
import pytest

from curveclust import Curve, CurveSet, pad_to_complexity
from curveclust.frechet import discrete_frechet, frechet_distance

from util import random_curve


def test_curve_basics():
    c = Curve([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]], label="a")
    assert len(c) == 3
    assert c.dimension == 2
    assert np.array_equal(c.start, [0.0, 0.0])
    assert np.array_equal(c.end, [3.0, 1.0])
    assert "a" in repr(c)


def test_curve_vertices_read_only():
    c = Curve([[0.0], [1.0]])
    with pytest.raises(ValueError):
        c.vertices[0] = 9.0


def test_curve_rejects_bad_input():
    with pytest.raises(ValueError):
        Curve([])
    with pytest.raises(ValueError):
        Curve([[0.0, 1.0], [2.0]])
    with pytest.raises(ValueError):
        Curve([[np.inf, 0.0]])


def test_singleton_survives_until_ingestion():
    lonely = Curve([[2.0, 3.0]])
    assert len(lonely) == 1
    cs = CurveSet([lonely])
    assert len(cs[0]) == 2
    assert np.array_equal(cs[0].vertices, [[2.0, 3.0], [2.0, 3.0]])


def test_curveset_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        CurveSet([Curve([[0.0, 0.0], [1.0, 1.0]]), Curve([[0.0], [1.0]])])
    with pytest.raises(ValueError):
        CurveSet([])


def test_curveset_properties():
    cs = CurveSet([Curve([[0.0], [1.0]]), Curve([[0.0], [1.0], [2.0]])])
    assert len(cs) == 2
    assert cs.dimension == 1
    assert [len(c) for c in cs] == [2, 3]


def test_concatenate_distance_bound():
    # joining pieces at a shared vertex cannot push the distance past the worst piece
    rng = np.random.default_rng(17)
    for _ in range(50):
        t1 = random_curve(rng, 3, 2)
        s1 = random_curve(rng, 3, 2)
        t2 = Curve(np.vstack([t1.vertices[-1], rng.normal(0.0, 5.0, (2, 2))]))
        s2 = Curve(np.vstack([s1.vertices[-1], rng.normal(0.0, 5.0, (2, 2))]))
        t = Curve(np.vstack([t1.vertices, t2.vertices[1:]]))
        s = Curve(np.vstack([s1.vertices, s2.vertices[1:]]))
        whole = frechet_distance(t, s).value
        pieces = max(frechet_distance(t1, s1).value, frechet_distance(t2, s2).value)
        assert whole <= pieces + 1e-6


def test_pad_layout_clones_first_vertex():
    padded = pad_to_complexity(Curve([[1.0, 2.0], [3.0, 4.0]]), 4)
    assert padded.vertices.tolist() == [
        [1.0, 2.0],
        [1.0, 2.0],
        [1.0, 2.0],
        [3.0, 4.0],
    ]


def test_pad_noop_and_rejection():
    c = Curve([[0.0], [1.0], [2.0]])
    assert pad_to_complexity(c, 3) is c
    with pytest.raises(ValueError):
        pad_to_complexity(c, 2)


def test_pad_never_moves_the_curve():
    rng = np.random.default_rng(23)
    for _ in range(20):
        c = random_curve(rng, 4, 3)
        other = random_curve(rng, 3, 3)
        p = pad_to_complexity(c, 7)
        assert frechet_distance(c, p).value <= 1e-9
        assert discrete_frechet(c, p) == 0.0
        d0 = frechet_distance(other, c).value
        d1 = frechet_distance(other, p).value
        assert d1 == pytest.approx(d0, abs=1e-8 * (1.0 + d0))

