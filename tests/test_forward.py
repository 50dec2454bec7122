from dataclasses import FrozenInstanceError
from functools import reduce

import numpy as np
import pytest
import scipy.ndimage as ndi
import scipy.sparse as sp

from coupledrec.diffops import adjoint_check
from coupledrec.forward import (
    ForwardOp,
    _band,
    _radon_matrices,
    _separable_factors,
    convolution_op,
    default_n_bins,
    identity_op,
    masked_fourier_op,
    radon_op,
)
from coupledrec.grids import Grid


def _rand_image(grid, seed):
    return np.random.default_rng(seed).standard_normal(grid.dims)


def test_identity_roundtrip():
    g = Grid((5, 7))
    op = identity_op(g)
    u = _rand_image(g, 0)
    np.testing.assert_array_equal(op.apply(u), u.reshape(-1))
    np.testing.assert_array_equal(op.adjoint(op.apply(u)), u)


def test_forward_op_is_frozen():
    # its cached norm must not outlive a change to the operator
    op = identity_op(Grid((4, 4)))
    assert op.norm == 1.0
    with pytest.raises(FrozenInstanceError):
        op.codomain_dim = 8
    with pytest.raises(FrozenInstanceError):
        op._apply = lambda u: 2.0 * u.reshape(-1)


def test_identity_shape_check():
    op = identity_op(Grid((4, 4)))
    with pytest.raises(ValueError):
        op.apply(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros(17))


def _gauss1d(sigma):
    radius = int(np.ceil(3 * sigma))
    k = np.exp(-(np.arange(-radius, radius + 1.0) ** 2) / (2 * sigma**2))
    return k / k.sum()


def _outer(*factors):
    return reduce(np.multiply.outer, factors)


@pytest.mark.parametrize(
    "dims, kernel, support",
    [
        ((9, 9), np.full((3, 3), 1.0 / 9.0), np.s_[3:6, 3:6]),
        ((40, 36), _outer(_gauss1d(1.5), _gauss1d(1.5)), np.s_[8:30, 6:28]),
        ((12, 10), np.arange(1.0, 16.0).reshape(3, 5) ** 2 / 1240.0, np.s_[2:9, 3:7]),
        ((12, 12, 12), _outer(*[_gauss1d(1.0)] * 3), np.s_[4:8, 3:9, 4:8]),
        ((40,), _gauss1d(1.5), np.s_[10:30]),
    ],
    ids=["box_3x3", "gaussian_2d", "nonseparable_2d", "gaussian_3d", "gaussian_1d"],
)
def test_convolution_constant_kernel_sum(dims, kernel, support):
    # a nonnegative kernel of sum 1 on a nonnegative interior-supported image
    # keeps the mass, and neither the operator nor its adjoint yields a
    # negative value, not even a roundoff-sized one where the result is zero
    assert kernel.sum() == pytest.approx(1.0)
    g = Grid(dims)
    u = np.zeros(g.dims)
    u[support] = np.random.default_rng(9).random(u[support].shape)
    op = convolution_op(g, kernel)
    y = op.apply(u)
    assert y.sum() == pytest.approx(u.sum())
    assert y.min() >= 0.0
    assert op.adjoint(y).min() >= 0.0
    assert np.count_nonzero(y == 0.0) > 0


def test_convolution_rejects_even_kernel():
    with pytest.raises(ValueError):
        convolution_op(Grid((8, 8)), np.ones((2, 3)))


@pytest.mark.parametrize(
    "dims, make_kernel, separable",
    [
        ((12, 10), lambda rng: rng.standard_normal((3, 5)), False),
        ((12, 10), lambda rng: _outer(rng.standard_normal(3), rng.standard_normal(5)), True),
        ((16, 16), lambda rng: _outer(_gauss1d(1.5), _gauss1d(1.5)), True),
        ((12, 10), lambda rng: _outer(rng.random(3), rng.random(5)) + 1e-10 * np.eye(3, 5), False),
        ((17,), lambda rng: rng.standard_normal(5), True),
        ((6, 7, 5), lambda rng: _outer(*(rng.standard_normal(n) for n in (3, 5, 3))), True),
        ((6, 7, 5), lambda rng: rng.standard_normal((3, 3, 3)), False),
        ((4, 6), lambda rng: _outer(rng.standard_normal(9), rng.standard_normal(11)), True),
        ((4, 6), lambda rng: rng.standard_normal((9, 11)), False),
    ],
    ids=[
        "nonseparable_2d",
        "separable_2d",
        "gaussian_2d",
        "near_rank1_2d",
        "1d",
        "separable_3d",
        "nonseparable_3d",
        "wider_than_grid_separable",
        "wider_than_grid_nonseparable",
    ],
)
def test_convolution_adjoint(dims, make_kernel, separable):
    g = Grid(dims)
    rng = np.random.default_rng(3)
    kernel = make_kernel(rng)
    op = convolution_op(g, kernel)
    assert (_separable_factors(kernel) is not None) == separable
    assert adjoint_check(op.as_linear_op(), trials=10, seed=0) < 1e-12
    # the direct n-D correlation is the oracle for the operator and its adjoint
    u = rng.standard_normal(dims)
    flipped = kernel[(slice(None, None, -1),) * kernel.ndim]
    for got, want in (
        (op.apply(u).reshape(dims), ndi.correlate(u, kernel, mode="constant", cval=0.0)),
        (op.adjoint(u.reshape(-1)), ndi.correlate(u, flipped, mode="constant", cval=0.0)),
    ):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(3, 5), (1, 5)], ids=["nonseparable", "separable"])
def test_convolution_keeps_its_own_kernel(shape):
    g = Grid((12, 10))
    kernel = np.random.default_rng(5).standard_normal(shape)
    op = convolution_op(g, kernel)
    want = ndi.correlate(np.eye(12, 10), kernel, mode="constant", cval=0.0)
    kernel *= -3.0  # the caller reuses its array; the operator must not change
    np.testing.assert_allclose(op.apply(np.eye(12, 10)).reshape(g.dims), want, rtol=1e-13)
    assert adjoint_check(op.as_linear_op(), trials=10, seed=0) < 1e-12


def test_fourier_full_mask_parseval():
    g = Grid((8, 8))
    op = masked_fourier_op(g, np.ones(g.dims, dtype=bool))
    u = _rand_image(g, 1)
    assert np.linalg.norm(op.apply(u)) == pytest.approx(np.linalg.norm(u), abs=1e-10)


def test_fourier_full_mask_inverts():
    g = Grid((8, 6))
    op = masked_fourier_op(g, np.ones(g.dims, dtype=bool))
    u = _rand_image(g, 2)
    np.testing.assert_allclose(op.adjoint(op.apply(u)), u, atol=1e-10)


def test_fourier_masked_adjoint():
    g = Grid((16, 16))
    rng = np.random.default_rng(4)
    mask = rng.random(g.dims) < 0.3
    mask.flat[0] = True
    op = masked_fourier_op(g, mask)
    assert op.codomain_dim == 2 * mask.sum()
    assert adjoint_check(op.as_linear_op(), trials=10, seed=0) < 1e-12


def test_fourier_mask_shape_check():
    with pytest.raises(ValueError):
        masked_fourier_op(Grid((8, 8)), np.ones((8, 7), dtype=bool))


def test_radon_zero_image():
    g = Grid((16, 16))
    op = radon_op(g, np.arange(6) * np.pi / 6, default_n_bins(g))
    assert np.abs(op.apply(np.zeros(g.dims))).max() == 0.0


def test_radon_mass_conservation_per_angle():
    # an interior-supported disc: each angle's line sums add up to the
    # total image mass because every pixel splats weight exactly 1
    g = Grid((32, 32))
    yy, xx = np.meshgrid(np.arange(32) - 15.5, np.arange(32) - 15.5, indexing="ij")
    disc = np.where(yy**2 + xx**2 <= 8.0**2, 1.0, 0.0)
    n_ang, n_bins = 10, default_n_bins(g)
    op = radon_op(g, np.arange(n_ang) * np.pi / n_ang, n_bins)
    sino = op.apply(disc).reshape(n_ang, n_bins)
    np.testing.assert_allclose(sino.sum(axis=1), disc.sum(), atol=1e-6)


def test_radon_nonnegative():
    g = Grid((16, 16))
    op = radon_op(g, np.arange(8) * np.pi / 8, default_n_bins(g))
    rng = np.random.default_rng(6)
    u = rng.random(g.dims)
    assert op.apply(u).min() >= 0.0


def test_radon_adjoint():
    g = Grid((16, 16))
    op = radon_op(g, np.arange(8) * np.pi / 8, default_n_bins(g))
    assert adjoint_check(op.as_linear_op(), trials=10, seed=0) < 1e-12


def test_radon_linearity():
    g = Grid((12, 12))
    op = radon_op(g, np.arange(4) * np.pi / 4, default_n_bins(g))
    a, b = _rand_image(g, 7), _rand_image(g, 8)
    np.testing.assert_allclose(
        op.apply(2.0 * a - 3.0 * b), 2.0 * op.apply(a) - 3.0 * op.apply(b), atol=1e-10
    )


def test_radon_rejects_bad_angles():
    g = Grid((8, 8))
    with pytest.raises(ValueError):
        radon_op(g, [0.0, np.pi], 11)
    for dims in ((4, 4, 4), (8,)):
        with pytest.raises(ValueError, match="radon_op requires a 2D grid"):
            radon_op(Grid(dims), [0.0], 7)
        with pytest.raises(ValueError, match="radon_op requires a 2D grid"):
            default_n_bins(Grid(dims))


@pytest.mark.parametrize(
    "angles, n_bins",
    [([np.nan], 11), ([0.0, np.inf], 11), ([-np.inf], 11), ([0.0], 2.5), ([0.0], True)],
    ids=["nan_angle", "inf_angle", "minus_inf_angle", "fractional_bins", "bool_bins"],
)
def test_radon_rejects_non_finite_angles_and_non_integer_bins(angles, n_bins):
    with pytest.raises(ValueError, match="angles|n_bins"):
        radon_op(Grid((8, 8)), angles, n_bins)


def test_default_n_bins_is_odd_and_covers():
    g = Grid((32, 32))
    assert default_n_bins(g) % 2 == 1
    assert default_n_bins(g) >= int(np.hypot(32, 32))


def test_apply_and_adjoint_never_return_a_view_of_their_argument():
    # an op whose callables return views: the step overwrites T(u) in place,
    # which must not reach u
    g = Grid((3, 4))
    op = ForwardOp(
        kind="identity", grid=g, codomain_dim=12,
        _apply=lambda u: u.reshape(-1), _adjoint=lambda y: y.reshape(g.dims),
    )
    u, y = np.ones(g.dims), np.ones(12)
    op.apply(u)[:] = 5.0
    op.adjoint(y)[:] = 5.0
    np.testing.assert_array_equal(u, np.ones(g.dims))
    np.testing.assert_array_equal(y, np.ones(12))


def test_radon_records_the_bins_no_pixel_reaches():
    g = Grid((8, 8))
    op = radon_op(g, np.arange(6) * np.pi / 6, default_n_bins(g))
    dense = np.stack([op.apply(e.reshape(g.dims)) for e in np.eye(g.sites)], axis=1)
    np.testing.assert_array_equal(op.empty_rows, np.flatnonzero(~dense.any(axis=1)))
    assert identity_op(g).empty_rows is None


# The per-angle COO build the sort-free one replaced, kept verbatim as the
# reference, with R^T formed as before: the arithmetic is the same, so both
# matrices must be bitwise equal.


def _ref_radon_matrix(grid: Grid, angles: np.ndarray, n_bins: int) -> sp.csr_matrix:
    ny, nx = grid.dims
    cy, cx = (ny - 1) / 2.0, (nx - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(ny) - cy, np.arange(nx) - cx, indexing="ij")
    rows_all, cols_all, vals_all = [], [], []
    pix = np.arange(grid.sites)
    for k, theta in enumerate(angles):
        # signed distance of each pixel center from the central ray
        t = xx * np.cos(theta) + yy * np.sin(theta)
        pos = t.reshape(-1) + (n_bins - 1) / 2.0
        i0 = np.floor(pos).astype(np.int64)
        w1 = pos - i0
        for off, w in ((0, 1.0 - w1), (1, w1)):
            b = i0 + off
            ok = (b >= 0) & (b < n_bins) & (w > 0)
            rows_all.append(k * n_bins + b[ok])
            cols_all.append(pix[ok])
            vals_all.append(w[ok])
    rows = np.concatenate(rows_all)
    cols = np.concatenate(cols_all)
    vals = np.concatenate(vals_all)
    shape = (len(angles) * n_bins, grid.sites)
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def _even(n):
    return np.arange(n) * np.pi / n


@pytest.mark.parametrize(
    "dims, angles, n_bins",
    [
        ((64, 64), _even(12), None),
        ((32, 32), _even(12), None),
        ((33, 17), _even(7), None),
        ((1, 5), _even(12), None),
        ((5, 1), _even(12), None),
        ((32, 32), _even(12), 21),  # shorter than the projection: bins fall out
        ((15, 15), np.array([0.0]), None),  # weight-0 entries drop
        ((17, 15), np.random.default_rng(5).random(9) * np.pi, None),
    ],
    ids=["64", "32", "33x17", "1x5", "5x1", "short_detector", "one_angle_0", "unsorted_random"],
)
def test_radon_matrices_match_the_reference_bitwise(dims, angles, n_bins):
    g = Grid(dims)
    n_bins = default_n_bins(g) if n_bins is None else n_bins
    ref = _ref_radon_matrix(g, angles, n_bins)
    ref_t = ref.T.tocsr()
    mat, mat_t = _radon_matrices(g, angles, n_bins)
    for got, want in ((mat, ref), (mat_t, ref_t)):
        assert type(got) is type(want)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.shape == b.shape, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert got.has_canonical_format
    op = radon_op(g, angles, n_bins)
    np.testing.assert_array_equal(op.empty_rows, np.flatnonzero(np.diff(ref.indptr) == 0))


@pytest.mark.parametrize("n", [1, 4, 11, 20])
def test_band_of_the_reversed_factor_is_the_transpose(n):
    factor = np.random.default_rng(n).standard_normal(9)
    band = _band(factor, n).toarray()
    want = np.zeros((n, n))
    for i in range(n):
        for k in range(-4, 5):
            if 0 <= i + k < n:
                want[i, i + k] = factor[4 + k]
    np.testing.assert_array_equal(band, want)
    np.testing.assert_array_equal(_band(factor[::-1], n).toarray(), want.T)


@pytest.mark.parametrize(
    "dims, make",
    [
        ((7, 6), lambda g: identity_op(g)),
        ((7, 6), lambda g: masked_fourier_op(g, np.random.default_rng(2).random(g.dims) < 0.5)),
        ((7, 6), lambda g: radon_op(g, np.arange(4) * np.pi / 4, default_n_bins(g))),
        ((7, 6), lambda g: convolution_op(g, np.random.default_rng(1).random((3, 3)))),
        ((9,), lambda g: convolution_op(g, _gauss1d(1.0))),
        ((7, 6), lambda g: convolution_op(g, _outer(_gauss1d(1.0), _gauss1d(1.5)))),
        ((5, 4, 3), lambda g: convolution_op(g, _outer(*[_gauss1d(1.0)] * 3))),
    ],
    ids=[
        "identity",
        "masked_fourier",
        "radon",
        "nonseparable_convolution",
        "banded_1d",
        "banded_2d",
        "banded_3d",
    ],
)
def test_results_share_no_memory_with_their_argument(dims, make):
    g = Grid(dims)
    op = make(g)
    rng = np.random.default_rng(3)
    u, y = rng.standard_normal(g.dims), rng.standard_normal(op.codomain_dim)
    assert not np.shares_memory(op.apply(u), u)
    assert not np.shares_memory(op.adjoint(y), y)
