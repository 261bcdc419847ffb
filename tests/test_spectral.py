import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpareto.graph import distance_matrix, make_family
from distpareto.spectral import (
    RESIDUAL_TOL,
    SymMatrix,
    full_spectrum,
    spectral_radius,
)


def _dm(family, params):
    return SymMatrix.from_array(distance_matrix(make_family(family, params)).d.astype(float))


def _j_minus_i(k, scale=1.0):
    return SymMatrix.from_array(scale * (np.ones((k, k)) - np.eye(k)))


def test_spectral_radius_j3_minus_i3():
    assert spectral_radius(_j_minus_i(3)).value == pytest.approx(2.0, abs=1e-12)


def test_spectral_radius_path3():
    assert spectral_radius(_dm("path", [3])).value == pytest.approx(1 + math.sqrt(3), abs=1e-10)


def test_spectral_radius_path4_quadratic_oracle():
    # symmetry reduction of the 4x4 path distance matrix gives r^2 - 4r - 6 = 0
    value = spectral_radius(_dm("path", [4])).value
    assert value == pytest.approx(2 + math.sqrt(10), abs=1e-10)
    assert value * value - 4 * value - 6 == pytest.approx(0.0, abs=1e-8)


def test_full_spectrum_path3_cubic_factorization():
    # det(xI - D) = x^3 - 6x - 4 = (x + 2)(x^2 - 2x - 2)
    spec = full_spectrum(_dm("path", [3]))
    expected = [-2.0, 1 - math.sqrt(3), 1 + math.sqrt(3)]
    assert spec == pytest.approx(expected, abs=1e-10)


def test_full_spectrum_j4_minus_i4():
    assert full_spectrum(_j_minus_i(4)) == pytest.approx([-1, -1, -1, 3], abs=1e-10)


def test_full_spectrum_trivial():
    assert full_spectrum(SymMatrix.from_array([[0.0]])) == [0.0]


def test_spectral_radius_order_one():
    res = spectral_radius(SymMatrix.from_array([[0.0]]))
    assert res.value == 0.0
    assert res.vector.tolist() == [1.0]


def test_residual_contract_on_families():
    for fam, params in [("path", [7]), ("wheel", [8]), ("complete_bipartite", [3, 5])]:
        m = _dm(fam, params)
        res = spectral_radius(m)
        assert res.residual <= RESIDUAL_TOL * max(1.0, abs(res.value))
        assert abs(np.linalg.norm(res.vector) - 1.0) < 1e-12


def test_perron_vector_positive_on_distance_matrices():
    for fam, params in [("path", [6]), ("star", [7]), ("cycle", [5])]:
        res = spectral_radius(_dm(fam, params))
        assert res.vector.min() > 0


def test_radius_at_least_average_row_sum():
    # equality holds exactly when all row sums agree
    for fam, params, regular in [
        ("complete", [5], True),
        ("cycle", [6], True),
        ("path", [5], False),
        ("star", [6], False),
    ]:
        m = _dm(fam, params)
        avg = float(m.a.sum()) / m.k
        rho = spectral_radius(m).value
        assert rho >= avg - 1e-10
        if regular:
            assert rho == pytest.approx(avg, abs=1e-9)
        else:
            assert rho > avg + 1e-9


def test_dominance_implies_strict_radius_increase():
    rng = np.random.default_rng(3)
    for fam, params in [("path", [6]), ("wheel", [6]), ("complete_bipartite", [2, 4])]:
        m = _dm(fam, params)
        for _ in range(40):
            k = int(rng.integers(2, m.k))
            keep = sorted(rng.choice(m.k, size=k, replace=False).tolist())
            sub = SymMatrix.from_array(m.a[np.ix_(keep, keep)])
            assert spectral_radius(m).value > spectral_radius(sub).value + 1e-9


def test_rayleigh_never_exceeds_radius():
    rng = np.random.default_rng(5)
    for fam, params in [("path", [5]), ("star", [6]), ("cycle", [7])]:
        m = _dm(fam, params)
        rho = spectral_radius(m).value
        x = rng.normal(size=(1000, m.k))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        quad = np.einsum("ij,jk,ik->i", x, m.a, x)
        assert quad.max() <= rho + 1e-9


def test_interlacing_of_order_one_less():
    for fam, params in [("path", [6]), ("wheel", [7]), ("star", [6])]:
        m = _dm(fam, params)
        parent = full_spectrum(m)
        for drop in range(m.k):
            keep = [i for i in range(m.k) if i != drop]
            child = full_spectrum(SymMatrix.from_array(m.a[np.ix_(keep, keep)]))
            for i in range(m.k - 1):
                assert parent[i] <= child[i] + 1e-9
                assert child[i] <= parent[i + 1] + 1e-9


def test_symmatrix_validation():
    with pytest.raises(ValueError):
        SymMatrix.from_array([[0, -1], [-1, 0]])
    with pytest.raises(ValueError):
        SymMatrix.from_array([[0, 1, 2], [1, 0, 1]])
    # lower triangle is ignored; the upper triangle is mirrored exactly
    m = SymMatrix.from_array([[0, 5], [99, 0]])
    assert m.a.tolist() == [[0, 5], [5, 0]]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda k: st.lists(
            st.integers(min_value=0, max_value=9), min_size=k * k, max_size=k * k
        )
    )
)
def test_rayleigh_bounded_by_radius_hypothesis(flat):
    k = int(math.isqrt(len(flat)))
    a = np.array(flat, dtype=float).reshape(k, k)
    np.fill_diagonal(a, 0)
    m = SymMatrix.from_array(a)
    rho = spectral_radius(m).value
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=k)
        if not x.any():
            continue
        assert x @ m.a @ x / (x @ x) <= rho + 1e-9
