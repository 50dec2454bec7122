from dataclasses import FrozenInstanceError
from functools import reduce

import numpy as np
import pytest
import scipy.ndimage as ndi

from coupledrec.diffops import adjoint_check
from coupledrec.forward import (
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
    with pytest.raises(ValueError):
        radon_op(Grid((4, 4, 4)), [0.0], 7)


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
