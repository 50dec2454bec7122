import numpy as np
import pytest

from coupledrec.diffops import (
    adjoint_check,
    div,
    grad,
    grad_linear_op,
    grad_norm,
    op_norm_estimate,
    sym_div,
    sym_grad,
    sym_grad_linear_op,
    sym_grad_norm_bound,
)
from coupledrec.grids import Grid, MultiImage, SymTensorField, VectorField


def _image(grid, channels, seed):
    rng = np.random.default_rng(seed)
    return MultiImage(grid, rng.standard_normal(grid.dims + (channels,)))


def test_grad_1d_example():
    g = Grid((3,))
    u = MultiImage(g, np.array([0.0, 1.0, 2.0]).reshape(3, 1))
    np.testing.assert_allclose(grad(u).values[:, 0, 0], [1.0, 1.0, 0.0])


def test_div_1d_example():
    g = Grid((3,))
    p = VectorField(g, np.array([1.0, 1.0, 0.0]).reshape(3, 1, 1))
    np.testing.assert_allclose(div(p).values[:, 0], [1.0, 0.0, -1.0])


def test_grad_constant_is_zero():
    g = Grid((6, 7))
    u = MultiImage(g, np.full((6, 7, 2), 3.25))
    assert np.abs(grad(u).values).max() == 0.0


def test_grad_linearity():
    g = Grid((5, 4))
    u1, u2 = _image(g, 2, 0), _image(g, 2, 1)
    combo = MultiImage(g, 2.0 * u1.values - 0.5 * u2.values)
    np.testing.assert_allclose(
        grad(combo).values, 2.0 * grad(u1).values - 0.5 * grad(u2).values, atol=1e-13
    )


def test_grad_respects_spacing():
    g = Grid((3,), (0.5,))
    u = MultiImage(g, np.array([0.0, 1.0, 2.0]).reshape(3, 1))
    np.testing.assert_allclose(grad(u).values[:, 0, 0], [2.0, 2.0, 0.0])


# the last four grids have a length-1 axis, on which both stencils write no row
ADJOINT_GRIDS = [(7,), (5, 6), (4, 3, 5), (1, 5), (5, 1), (3, 2, 1), (1,)]


@pytest.mark.parametrize("dims", ADJOINT_GRIDS)
def test_grad_div_adjoint(dims):
    assert adjoint_check(grad_linear_op(Grid(dims), 2), trials=10, seed=0) < 1e-12


@pytest.mark.parametrize("dims", ADJOINT_GRIDS)
def test_sym_grad_div_adjoint(dims):
    assert adjoint_check(sym_grad_linear_op(Grid(dims), 2), trials=10, seed=0) < 1e-12


def test_sym_grad_constant_is_zero():
    g = Grid((6, 6))
    v = VectorField(g, np.full((6, 6, 1, 2), -1.5))
    assert np.abs(sym_grad(v).values).max() == 0.0


def test_affine_in_tgv_kernel():
    # the second-order energy of any affine image must vanish with
    # v = grad u: that is the defining kernel property of the pairing
    g = Grid((8, 8))
    y, x = np.meshgrid(np.arange(8.0), np.arange(8.0), indexing="ij")
    vals = np.stack([1.0 + 2.0 * x - 0.7 * y, 0.3 * x + 0.1 * y], axis=-1)
    u = MultiImage(g, vals)
    ev = sym_grad(grad(u))
    assert np.abs(ev.values).max() < 1e-13


def test_div_interior_mass_conservation():
    g = Grid((8, 8))
    rng = np.random.default_rng(5)
    vals = np.zeros((8, 8, 1, 2))
    vals[2:-2, 2:-2] = rng.standard_normal((4, 4, 1, 2))
    total = div(VectorField(g, vals)).values.sum()
    assert abs(total) < 1e-12


@pytest.mark.parametrize("n", [4, 8, 16])
def test_grad_norm_matches_dense_svd(n):
    # oracle: assemble the dense matrix column by column and take its
    # largest singular value; the 1D answer is 2*sin(pi*(n-1)/(2*n))
    op = grad_linear_op(Grid((n,)), 1)
    cols = np.stack([op.apply(e) for e in np.eye(op.domain_dim)], axis=1)
    dense = np.linalg.svd(cols, compute_uv=False)[0]
    est = op_norm_estimate(op, iters=500, seed=1)
    assert est == pytest.approx(dense, abs=1e-8)
    assert dense == pytest.approx(2.0 * np.sin(np.pi * (n - 1) / (2 * n)), abs=1e-12)
    assert est <= dense + 1e-6


CLOSED_FORM_GRIDS = [
    Grid((64,)),
    Grid((7,), (0.3,)),
    Grid((6, 6)),
    Grid((7, 5), (1.0, 0.5)),
    Grid((2, 5), (0.8, 1.7)),
    Grid((1, 6)),
    Grid((5, 4, 3)),
    Grid((3, 3, 2), (1.0, 0.5, 2.0)),
    Grid((5, 4, 3), (0.7, 1.3, 2.0)),
]


@pytest.mark.parametrize("grid", CLOSED_FORM_GRIDS, ids=lambda g: f"{g.dims}-{g.spacing}")
def test_closed_form_norms_against_dense_svd(grid):
    # the solver's TGV steps rest on these: ||grad|| exact, ||E|| an upper
    # bound, both in the inner products of the flat wrappers (weighted for E)
    def top(op):
        cols = np.stack([op.apply(e) for e in np.eye(op.domain_dim)], axis=1)
        return np.linalg.svd(cols, compute_uv=False)[0]

    assert grad_norm(grid.dims, grid.spacing) == pytest.approx(
        top(grad_linear_op(grid, 1)), rel=1e-12
    )
    assert sym_grad_norm_bound(grid.dims, grid.spacing) >= top(sym_grad_linear_op(grid, 1)) * (
        1 - 1e-12
    )


def test_op_norm_nondecreasing_in_iters():
    op = grad_linear_op(Grid((9, 9)), 1)
    estimates = [op_norm_estimate(op, iters=k, seed=3) for k in (1, 5, 20, 100)]
    for a, b in zip(estimates, estimates[1:]):
        assert b >= a - 1e-12


def test_sym_div_is_negative_adjoint_weighted():
    # direct weighted-inner-product statement, independent of the flat wrapper
    from coupledrec.grids import inner_product

    g = Grid((5, 7))
    rng = np.random.default_rng(9)
    v = VectorField(g, rng.standard_normal((5, 7, 2, 2)))
    q = SymTensorField(g, rng.standard_normal((5, 7, 2, 3)))
    lhs = inner_product(sym_grad(v), q)
    rhs = -inner_product(v, sym_div(q))
    assert lhs == pytest.approx(rhs, rel=1e-12)
