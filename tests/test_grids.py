import numpy as np
import pytest

from coupledrec.grids import (
    Grid,
    MultiImage,
    SymTensorField,
    VectorField,
    block_sum_squares,
    component_major,
    inner_product,
    l2_norm,
    pointwise_norms,
    pointwise_norms_array,
    sym_index_pairs,
    sym_size,
    sym_weights,
)


def test_grid_validation():
    g = Grid((4, 5))
    assert g.ndim == 2
    assert g.sites == 20
    for dims in [(4, 0), (64.7, 3), (4.0, 3), (True, 3), (4, np.bool_(True)), ("4", 3)]:
        with pytest.raises(ValueError, match="grid dims must be positive"):
            Grid(dims)
    assert [type(n) for n in Grid((np.int64(4), np.int32(5))).dims] == [int, int]
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
    for dims in ((5,), (3, 4), (2, 3, 4)):
        g = Grid(dims)
        d = g.ndim
        for kind, tail in ((MultiImage, ()), (VectorField, (d,)), (SymTensorField, (sym_size(d),))):
            z = kind.zeros(g, 2)
            assert z.values.shape == dims + (2,) + tail
            assert z.channels == 2
            moved = type(z)(z.grid, np.ones(z.values.shape))
            assert type(moved) is kind and moved.grid == g
            assert (kind.weights(d) is not None) == (kind is SymTensorField)
            wrong_tail = tail[:-1] + (tail[-1] + 1,) if tail else (1,)
            with pytest.raises(ValueError, match="expected shape"):
                kind(g, np.zeros(dims + (2,) + wrong_tail))
            with pytest.raises(ValueError, match="N >= 1"):
                kind(g, np.zeros(dims + (0,) + tail))
            for bad in (np.nan, np.inf):
                vals = np.zeros(dims + (2,) + tail)
                vals.flat[-1] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    kind(g, vals)


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
    lhs = inner_product(type(a)(a.grid, a.values + 2.0 * b.values), c)
    rhs = inner_product(a, c) + 2.0 * inner_product(b, c)
    assert lhs == pytest.approx(rhs)


def test_l2_norm_is_the_pairwise_sum_of_squares():
    x = np.random.default_rng(4).standard_normal((3, 256, 256))
    norm = l2_norm(x)
    assert type(norm) is float
    assert norm == float(np.sqrt(np.sum(x * x)))
    assert norm == pytest.approx(np.linalg.norm(x.reshape(-1)), rel=1e-14)
    out = np.empty_like(x)
    assert l2_norm(x, out) == norm
    np.testing.assert_array_equal(out, x * x)
    assert l2_norm(np.zeros(5)) == 0.0


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


# The NumPy reductions over the short (N, k) trailing axes that
# block_sum_squares replaced, kept verbatim as references: the squares are
# added in the same order up to N * k = 7 entries, so the sums must be
# bitwise equal there, and agree to roundoff beyond.


def _ref_frobenius_norms(values, weights=None):
    sq = values**2 if weights is None else values**2 * weights
    return np.sqrt(np.sum(sq, axis=(-2, -1))).reshape(-1)


def _ref_nuclear_norms_2d(values):
    x, y = values[..., 0], values[..., 1]
    det = np.zeros(values.shape[:-2])
    n = values.shape[-2]
    for i in range(n):
        for j in range(i + 1, n):
            det += (x[..., i] * y[..., j] - x[..., j] * y[..., i]) ** 2
    sq = np.sum(values**2, axis=(-2, -1))
    return np.sqrt(sq + 2.0 * np.sqrt(det)).reshape(-1)


def _assert_matches_reduction(new, ref, entries):
    if entries <= 7:
        np.testing.assert_array_equal(new, ref)
    else:
        np.testing.assert_allclose(new, ref, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
@pytest.mark.parametrize("n", range(1, 8))
def test_block_sums_match_the_reductions(n, k):
    # the references reduce site-major values, the kernels take them component-major
    rng = np.random.default_rng(10 * n + k)
    values = rng.standard_normal((9, 7, n, k))
    cm = component_major(values, 2)
    weights = rng.random(k) + 0.5
    for w in (None, weights):
        ref = np.sum(values**2 if w is None else values**2 * w, axis=(-2, -1))
        _assert_matches_reduction(block_sum_squares(cm, w), ref, n * k)
        _assert_matches_reduction(
            pointwise_norms_array(cm, weights=w), _ref_frobenius_norms(values, w), n * k
        )
    if k == 2:
        _assert_matches_reduction(
            pointwise_norms_array(cm, "nuclear"), _ref_nuclear_norms_2d(values), n * k
        )
