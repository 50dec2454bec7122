import numpy as np
import pytest

from coupledrec.grids import (
    Grid,
    MultiImage,
    SymTensorField,
    VectorField,
    inner_product,
    pointwise_norms,
    sym_index_pairs,
    sym_size,
    sym_weights,
)


def test_grid_validation():
    g = Grid((4, 5))
    assert g.ndim == 2
    assert g.sites == 20
    with pytest.raises(ValueError):
        Grid((4, 0))
    with pytest.raises(ValueError):
        Grid((2, 2, 2, 2))
    with pytest.raises(ValueError):
        Grid((4, 4), (1.0, -1.0))


def test_field_shapes():
    g = Grid((3, 4))
    u = MultiImage.zeros(g, 2)
    assert u.values.shape == (3, 4, 2)
    v = VectorField.zeros(g, 2)
    assert v.values.shape == (3, 4, 2, 2)
    q = SymTensorField.zeros(g, 2)
    assert q.values.shape == (3, 4, 2, 3)
    with pytest.raises(ValueError):
        MultiImage(g, np.zeros((3, 4)))


def test_sym_layout():
    assert sym_size(1) == 1
    assert sym_size(2) == 3
    assert sym_size(3) == 6
    assert sym_index_pairs(2) == [(0, 0), (0, 1), (1, 1)]
    np.testing.assert_array_equal(sym_weights(2), [1.0, 2.0, 1.0])
    np.testing.assert_array_equal(sym_weights(3), [1.0, 2.0, 2.0, 1.0, 2.0, 1.0])


def test_inner_product_weights_off_diagonal():
    # a symmetric 2x2 tensor with only the off-diagonal entry set has
    # squared Frobenius norm 2*e^2, which the weighted product must report
    g = Grid((1, 1))
    q = SymTensorField(g, np.array([0.0, 3.0, 0.0]).reshape(1, 1, 1, 3))
    assert inner_product(q, q) == pytest.approx(18.0)


def test_inner_product_bilinear():
    g = Grid((4, 4))
    rng = np.random.default_rng(0)
    a = MultiImage(g, rng.standard_normal((4, 4, 2)))
    b = MultiImage(g, rng.standard_normal((4, 4, 2)))
    c = MultiImage(g, rng.standard_normal((4, 4, 2)))
    lhs = inner_product(a.with_values(a.values + 2.0 * b.values), c)
    rhs = inner_product(a, c) + 2.0 * inner_product(b, c)
    assert lhs == pytest.approx(rhs)


def test_pointwise_norms_frobenius_vs_direct():
    g = Grid((5, 6))
    rng = np.random.default_rng(1)
    v = VectorField(g, rng.standard_normal((5, 6, 3, 2)))
    norms = pointwise_norms(v, "frobenius")
    direct = np.sqrt(np.sum(v.values**2, axis=(-2, -1))).reshape(-1)
    np.testing.assert_allclose(norms, direct, rtol=1e-13)


def test_pointwise_norms_nuclear_diagonal_block():
    # a diagonal 2x2 block has nuclear norm |a| + |b|
    g = Grid((1, 1))
    vals = np.zeros((1, 1, 2, 2))
    vals[0, 0, 0, 0] = 3.0
    vals[0, 0, 1, 1] = -1.0
    v = VectorField(g, vals)
    assert pointwise_norms(v, "nuclear")[0] == pytest.approx(4.0)


def test_nuclear_at_least_frobenius():
    g = Grid((4, 4))
    rng = np.random.default_rng(2)
    v = VectorField(g, rng.standard_normal((4, 4, 3, 2)))
    nuc = pointwise_norms(v, "nuclear")
    fro = pointwise_norms(v, "frobenius")
    assert np.all(nuc >= fro - 1e-12)


def test_coupled_l1_norm_single_site():
    g = Grid((1, 1))
    vals = np.zeros((1, 1, 1, 2))
    vals[0, 0, 0] = [3.0, 4.0]
    v = VectorField(g, vals)
    assert pointwise_norms(v, "frobenius").sum() == pytest.approx(5.0)
