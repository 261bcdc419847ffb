import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpareto.errors import EigensolverError
from distpareto.graph import distance_matrix, make_family
from distpareto.spectral import RESIDUAL_TOL, _eigenvalues, perron_pairs_many


def _dm(family, params):
    return distance_matrix(make_family(family, params)).astype(float)


def _j_minus_i(k, scale=1.0):
    return scale * (np.ones((k, k)) - np.eye(k))


def _perron(a):
    """Perron value and vector of one matrix, through the stacked routine."""
    values, vectors = perron_pairs_many(a[None])
    return float(values[0]), vectors[0]


def _radius(a):
    return _perron(a)[0]


def test_spectral_radius_j3_minus_i3():
    assert _radius(_j_minus_i(3)) == pytest.approx(2.0, abs=1e-12)


def test_spectral_radius_path3():
    assert _radius(_dm("path", [3])) == pytest.approx(1 + math.sqrt(3), abs=1e-10)


def test_spectral_radius_path4_quadratic_oracle():
    # symmetry reduction of the 4x4 path distance matrix gives r^2 - 4r - 6 = 0
    value = _radius(_dm("path", [4]))
    assert value == pytest.approx(2 + math.sqrt(10), abs=1e-10)
    assert value * value - 4 * value - 6 == pytest.approx(0.0, abs=1e-8)


def test_full_spectrum_path3_cubic_factorization():
    # det(xI - D) = x^3 - 6x - 4 = (x + 2)(x^2 - 2x - 2)
    spec = _eigenvalues(_dm("path", [3]))
    expected = [-2.0, 1 - math.sqrt(3), 1 + math.sqrt(3)]
    assert spec == pytest.approx(expected, abs=1e-10)


def test_full_spectrum_j4_minus_i4():
    assert _eigenvalues(_j_minus_i(4)) == pytest.approx([-1, -1, -1, 3], abs=1e-10)


def test_full_spectrum_trivial():
    assert _eigenvalues(np.zeros((1, 1))).tolist() == [0.0]


def test_spectral_radius_order_one():
    value, vector = _perron(np.zeros((1, 1)))
    assert value == 0.0
    assert vector.tolist() == [1.0]


def test_residual_contract_on_families():
    for fam, params in [("path", [7]), ("wheel", [8]), ("complete_bipartite", [3, 5])]:
        a = _dm(fam, params)
        value, vector = _perron(a)
        residual = float(np.abs(a @ vector - value * vector).max())
        assert residual <= RESIDUAL_TOL * max(1.0, abs(value))
        assert abs(np.linalg.norm(vector) - 1.0) < 1e-12


def test_residual_contract_enforced(monkeypatch):
    eigh = np.linalg.eigh

    def perturbed(a):
        values, vectors = eigh(a)
        return values, vectors + 1e-6

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(EigensolverError):
        perron_pairs_many(_dm("path", [4])[None])
    with pytest.raises(EigensolverError):
        _eigenvalues(_dm("path", [4]))


def test_perron_vector_positive_on_distance_matrices():
    for fam, params in [("path", [6]), ("star", [7]), ("cycle", [5])]:
        assert _perron(_dm(fam, params))[1].min() > 0


def test_radius_at_least_average_row_sum():
    # equality holds exactly when all row sums agree
    for fam, params, regular in [
        ("complete", [5], True),
        ("cycle", [6], True),
        ("path", [5], False),
        ("star", [6], False),
    ]:
        a = _dm(fam, params)
        avg = float(a.sum()) / a.shape[0]
        rho = _radius(a)
        assert rho >= avg - 1e-10
        if regular:
            assert rho == pytest.approx(avg, abs=1e-9)
        else:
            assert rho > avg + 1e-9


def test_dominance_implies_strict_radius_increase():
    rng = np.random.default_rng(3)
    for fam, params in [("path", [6]), ("wheel", [6]), ("complete_bipartite", [2, 4])]:
        a = _dm(fam, params)
        k_all = a.shape[0]
        for _ in range(40):
            k = int(rng.integers(2, k_all))
            keep = sorted(rng.choice(k_all, size=k, replace=False).tolist())
            assert _radius(a) > _radius(a[np.ix_(keep, keep)]) + 1e-9


def test_rayleigh_never_exceeds_radius():
    rng = np.random.default_rng(5)
    for fam, params in [("path", [5]), ("star", [6]), ("cycle", [7])]:
        a = _dm(fam, params)
        rho = _radius(a)
        x = rng.normal(size=(1000, a.shape[0]))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        quad = np.einsum("ij,jk,ik->i", x, a, x)
        assert quad.max() <= rho + 1e-9


def test_interlacing_of_order_one_less():
    for fam, params in [("path", [6]), ("wheel", [7]), ("star", [6])]:
        a = _dm(fam, params)
        k = a.shape[0]
        parent = _eigenvalues(a)
        for drop in range(k):
            keep = [i for i in range(k) if i != drop]
            child = _eigenvalues(a[np.ix_(keep, keep)])
            for i in range(k - 1):
                assert parent[i] <= child[i] + 1e-9
                assert child[i] <= parent[i + 1] + 1e-9


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
    a = np.triu(a) + np.triu(a, 1).T  # mirror the upper triangle: exactly symmetric
    rho = _radius(a)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=k)
        if not x.any():
            continue
        assert x @ a @ x / (x @ x) <= rho + 1e-9
