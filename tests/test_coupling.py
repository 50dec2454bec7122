import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledrec.coupling import (
    _gram_2x2,
    haar_forward,
    haar_forward_array,
    haar_inverse,
    haar_inverse_array,
    project_dual_ball,
    project_group_l2ball,
)
from coupledrec.forward import identity_op
from coupledrec.grids import (
    Grid,
    MultiImage,
    SymTensorField,
    VectorField,
    pointwise_norms,
)
from coupledrec.problem import ChannelSpec, ProblemSpec, WaveletL21
from coupledrec.solver import regularizer_value


def _vf(grid, channels, seed):
    rng = np.random.default_rng(seed)
    return VectorField(grid, rng.standard_normal(grid.dims + (channels, grid.ndim)))


# --- SVD oracle ---------------------------------------------------------------


def _rot(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def jacobi_svd_2x2(m):
    """Independent two-sided rotation SVD of a 2x2 block (test oracle).

    Returns (u, s, vt) with m = u @ diag(s) @ vt; s[1] may be negative, the
    singular values are |s|.
    """
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    e = (a + d) / 2.0
    f = (a - d) / 2.0
    g = (c + b) / 2.0
    h = (c - b) / 2.0
    q = np.hypot(e, h)
    r = np.hypot(f, g)
    a1, a2 = np.arctan2(g, f), np.arctan2(h, e)
    return _rot((a2 + a1) / 2.0), np.array([q + r, q - r]), _rot((a2 - a1) / 2.0)


def _single_site(block):
    """A one-site 2-D vector field whose d x N block is ``block``."""
    return VectorField(Grid((1, 1)), block.T.reshape(1, 1, *block.T.shape))


def test_closed_forms_match_jacobi_oracle():
    rng = np.random.default_rng(0)
    alpha = 0.9
    for _ in range(200):
        m = rng.standard_normal((2, 2))
        u, s, vt = jacobi_svd_2x2(m)
        np.testing.assert_allclose(u @ np.diag(s) @ vt, m, atol=1e-12)
        z = _single_site(m)
        assert pointwise_norms(z, "nuclear")[0] == pytest.approx(np.abs(s).sum(), abs=1e-12)
        clipped = u @ np.diag(np.sign(s) * np.minimum(np.abs(s), alpha)) @ vt
        got = project_dual_ball(z, alpha, "nuclear").values[0, 0].T
        np.testing.assert_allclose(got, clipped, atol=1e-12)


def _svd_reference(z, alpha):
    """Nuclear norms and singular-value clip of every site block by np.linalg.svd."""
    n, d = z.channels, z.grid.ndim
    blocks = z.values.reshape(-1, n, d).transpose(0, 2, 1)
    u, s, vt = np.linalg.svd(blocks, full_matrices=False)
    clipped = np.einsum("...ik,...k,...kn->...in", u, np.minimum(s, alpha), vt)
    return s.sum(axis=-1), clipped.transpose(0, 2, 1).reshape(z.values.shape)


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_nuclear_closed_forms_match_svd(channels):
    g = Grid((9, 7))
    for seed in range(3):
        z = VectorField(g, 2.0 * _vf(g, channels, 10 + seed).values)
        norms, clipped = _svd_reference(z, 1.3)
        np.testing.assert_allclose(pointwise_norms(z, "nuclear"), norms, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(
            project_dual_ball(z, 1.3, "nuclear").values, clipped, rtol=0, atol=1e-13
        )


@pytest.mark.parametrize(
    "block, alpha",
    [
        (np.zeros((2, 3)), 1.0),  # zero
        (np.array([[1.0, -2.0, 0.5], [2.0, -4.0, 1.0]]), 1.5),  # rank 1
        (np.array([[0.0, 0.0], [1.0, -3.0]]), 0.5),  # rank 1, one zero row
        (3.0 * np.array([[0.6, 0.8], [-0.8, 0.6]]), 2.0),  # equal singular values
        (np.diag([3.0, 1.0]), 1.0),  # alpha equal to the small singular value
        (np.diag([3.0, 1.0]), 3.0),  # alpha equal to the large singular value
    ],
)
def test_nuclear_closed_forms_degenerate_blocks(block, alpha):
    z = _single_site(block)
    norms, clipped = _svd_reference(z, alpha)
    assert pointwise_norms(z, "nuclear")[0] == pytest.approx(norms[0], rel=1e-15, abs=1e-15)
    np.testing.assert_allclose(project_dual_ball(z, alpha, "nuclear").values, clipped, atol=1e-15)


def test_nuclear_closed_form_keeps_clip_exact_inside_ball():
    # blocks with spectral norm <= alpha come back bit for bit
    z = _single_site(np.array([[0.3, -0.2, 0.1], [0.05, 0.4, -0.3]]))
    np.testing.assert_array_equal(project_dual_ball(z, 1.0, "nuclear").values, z.values)


def test_nuclear_norm_nearly_rank_deficient_block():
    # |x|^2 |y|^2 - (x.y)^2 cancels to roundoff here; the 2x2 minors do not
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal(3)
        y = x + 1e-9 * rng.standard_normal(3)
        z = _single_site(np.stack([x, y]))
        norms, _ = _svd_reference(z, 1.0)
        assert pointwise_norms(z, "nuclear")[0] == pytest.approx(norms[0], rel=1e-12)


def test_nuclear_3d_grid_matches_svd():
    g = Grid((3, 4, 2))
    z = VectorField(g, 2.0 * _vf(g, 2, 12).values)
    norms, clipped = _svd_reference(z, 1.1)
    got = project_dual_ball(z, 1.1, "nuclear").values
    np.testing.assert_allclose(pointwise_norms(z, "nuclear"), norms, rtol=1e-13)
    np.testing.assert_allclose(got, clipped, atol=1e-13)
    assert np.linalg.svd(got.reshape(-1, 2, 3), compute_uv=False).max() <= 1.1 + 1e-12


# --- dual-ball projections ----------------------------------------------------


def test_frobenius_projection_formula():
    g = Grid((1, 1))
    vals = np.zeros((1, 1, 1, 2))
    vals[0, 0, 0] = [3.0, 4.0]  # norm 5
    out = project_dual_ball(VectorField(g, vals), 2.0, "frobenius")
    np.testing.assert_allclose(out.values[0, 0, 0], [1.2, 1.6])


def test_frobenius_projection_inside_ball_untouched():
    g = Grid((4, 4))
    v = _vf(g, 2, 2)
    big = project_dual_ball(v, 1e9, "frobenius")
    np.testing.assert_allclose(big.values, v.values, atol=1e-12)


def test_frobenius_projection_sym_tensor_weighted():
    g = Grid((1, 1))
    q = SymTensorField(g, np.array([0.0, 3.0, 0.0]).reshape(1, 1, 1, 3))
    # weighted norm is sqrt(2)*3; projecting to alpha=1 rescales by that
    out = project_dual_ball(q, 1.0, "frobenius")
    assert out.values[0, 0, 0, 1] == pytest.approx(3.0 / (3.0 * np.sqrt(2.0)))


def test_nuclear_projection_diagonal_block():
    # block diag(3, 1) clipped at alpha = 2 -> diag(2, 1)
    g = Grid((1, 1))
    vals = np.zeros((1, 1, 2, 2))
    vals[0, 0, 0, 0] = 3.0
    vals[0, 0, 1, 1] = 1.0
    out = project_dual_ball(VectorField(g, vals), 2.0, "nuclear")
    np.testing.assert_allclose(out.values[0, 0], [[2.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_nuclear_projection_feasible_and_idempotent():
    g = Grid((5, 5))
    v = _vf(g, 3, 3)
    out = project_dual_ball(v, 1.5, "nuclear")
    # spectral norm (dual of nuclear) of every block is at most alpha
    blocks = out.values.reshape(-1, 3, 2).transpose(0, 2, 1)
    spec = np.linalg.svd(blocks, compute_uv=False)[:, 0]
    assert spec.max() <= 1.5 + 1e-10
    twice = project_dual_ball(out, 1.5, "nuclear")
    np.testing.assert_allclose(twice.values, out.values, atol=1e-10)


def test_nuclear_projection_constrained_solver_oracle():
    # oracle: solve min ||x - m||_F s.t. sigma_max(x) <= alpha with a
    # general-purpose constrained optimizer, independent of the clip formula
    from scipy.optimize import minimize

    rng = np.random.default_rng(4)
    alpha = 1.0
    for _ in range(10):
        m = rng.standard_normal((2, 2)) * 2.0
        res = minimize(
            lambda x: np.sum((x.reshape(2, 2) - m) ** 2),
            x0=m.ravel() / max(np.linalg.norm(m, 2), 1.0),
            constraints=[
                {
                    "type": "ineq",
                    "fun": lambda x: alpha - np.linalg.norm(x.reshape(2, 2), 2),
                }
            ],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
        g = Grid((1, 1))
        got = project_dual_ball(
            VectorField(g, m.T.reshape(1, 1, 2, 2)), alpha, "nuclear"
        ).values[0, 0].T
        # SLSQP stalls around 1e-3 on the nonsmooth constraint, so compare
        # objective values: the clip must be feasible and no farther from m
        assert np.linalg.norm(got, 2) <= alpha + 1e-9
        # allow for the optimizer resting slightly outside the feasible set
        slack = 2.0 * max(np.linalg.norm(res.x.reshape(2, 2), 2) - alpha, 0.0) + 1e-6
        assert np.linalg.norm(got - m) <= np.linalg.norm(res.x.reshape(2, 2) - m) + slack
        assert abs(np.linalg.norm(got - m) - np.linalg.norm(res.x.reshape(2, 2) - m)) < 1e-2


def test_nuclear_clip_orthogonal_invariance():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((2, 2))
    qmat, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    g = Grid((1, 1))

    def clip(block):
        vf = VectorField(g, block.T.reshape(1, 1, 2, 2))
        out = project_dual_ball(vf, 0.8, "nuclear")
        return out.values[0, 0].T

    s1 = np.linalg.svd(clip(qmat @ m), compute_uv=False)
    s2 = np.linalg.svd(clip(m), compute_uv=False)
    np.testing.assert_allclose(s1, s2, atol=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_projection_is_nonexpansive(seed):
    g = Grid((3, 3))
    a, b = _vf(g, 2, seed), _vf(g, 2, seed + 1)
    for coupling in ("frobenius", "nuclear"):
        pa = project_dual_ball(a, 1.0, coupling)
        pb = project_dual_ball(b, 1.0, coupling)
        assert np.linalg.norm((pa.values - pb.values).ravel()) <= np.linalg.norm(
            (a.values - b.values).ravel()
        ) + 1e-10


# --- Haar transform -----------------------------------------------------------


def test_haar_roundtrip():
    g = Grid((16, 8))
    rng = np.random.default_rng(6)
    u = MultiImage(g, rng.standard_normal((16, 8, 2)))
    for levels in (1, 2, 3):
        back = haar_inverse(haar_forward(u, levels), levels)
        np.testing.assert_allclose(back.values, u.values, atol=1e-12)


def test_haar_parseval():
    g = Grid((8, 8))
    rng = np.random.default_rng(7)
    u = MultiImage(g, rng.standard_normal((8, 8, 1)))
    c = haar_forward(u, 2)
    assert np.linalg.norm(c.values) == pytest.approx(np.linalg.norm(u.values), abs=1e-12)


def test_haar_constant_image_single_coefficient():
    g = Grid((8, 8))
    u = MultiImage(g, np.full((8, 8, 1), 2.0))
    c = haar_forward(u, 3).values[..., 0]
    nz = np.abs(c) > 1e-12
    assert nz.sum() == 1
    assert nz[0, 0]


def test_haar_rejects_bad_levels():
    g = Grid((6, 6))  # 6 not divisible by 4
    u = MultiImage.zeros(g, 1)
    with pytest.raises(ValueError):
        haar_forward(u, 2)


def test_haar_adjoint_is_inverse():
    # orthonormality: <Wu, c> == <u, W^T c> with W^T = W^-1
    g = Grid((8, 4))
    rng = np.random.default_rng(8)
    u = MultiImage(g, rng.standard_normal((8, 4, 2)))
    c = MultiImage(g, rng.standard_normal((8, 4, 2)))
    lhs = np.vdot(haar_forward(u, 2).values, c.values)
    rhs = np.vdot(u.values, haar_inverse(c, 2).values)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# The moveaxis/concatenate Haar transform the in-place one replaced, kept
# verbatim as the reference: the arithmetic is the same, so the outputs must
# be bitwise equal.


def _ref_haar1d_fwd(a: np.ndarray, axis: int) -> np.ndarray:
    a = np.moveaxis(a, axis, 0)
    lo = (a[0::2] + a[1::2]) / np.sqrt(2.0)
    hi = (a[0::2] - a[1::2]) / np.sqrt(2.0)
    return np.moveaxis(np.concatenate([lo, hi], axis=0), 0, axis)


def _ref_haar1d_inv(a: np.ndarray, axis: int) -> np.ndarray:
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0] // 2
    lo, hi = a[:n], a[n:]
    out = np.empty_like(a)
    out[0::2] = (lo + hi) / np.sqrt(2.0)
    out[1::2] = (lo - hi) / np.sqrt(2.0)
    return np.moveaxis(out, 0, axis)


def _ref_haar_levels(values: np.ndarray, levels: int, transform, order) -> np.ndarray:
    dims = values.shape[:-1]
    vals = values.copy()
    for k in order:
        region = tuple(slice(0, n >> k) for n in dims)
        block = vals[region]
        for ax in range(len(dims)):
            block = transform(block, ax)
        vals[region] = block
    return vals


@pytest.mark.parametrize("dims", [(32,), (16, 8), (8, 16, 8)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_haar_matches_reference_bitwise(dims, levels):
    rng = np.random.default_rng(len(dims) * 10 + levels)
    values = rng.standard_normal(dims + (3,))
    before = values.copy()
    fwd = haar_forward_array(values, levels)
    inv = haar_inverse_array(values, levels)
    np.testing.assert_array_equal(values, before)
    np.testing.assert_array_equal(
        fwd, _ref_haar_levels(values, levels, _ref_haar1d_fwd, range(levels))
    )
    np.testing.assert_array_equal(
        inv, _ref_haar_levels(values, levels, _ref_haar1d_inv, reversed(range(levels)))
    )


# --- group shrinkage ----------------------------------------------------------


def test_group_ball_projection_scales_cross_channel():
    g = Grid((1, 1))
    u = MultiImage(g, np.array([3.0, 4.0]).reshape(1, 1, 2))
    out = project_group_l2ball(u, 1.0)
    np.testing.assert_allclose(out.values.ravel(), [0.6, 0.8])


def test_group_l21_norm_value():
    # the wavelet regularizer sums the cross-channel norms of u's coefficients
    g = Grid((2, 2))
    vals = np.zeros((2, 2, 2))
    vals[0, 0] = [3.0, 4.0]
    vals[1, 0] = [0.0, 2.0]
    u = haar_inverse(MultiImage(g, vals), 1)
    spec = ProblemSpec(
        grid=g,
        channels=tuple(
            ChannelSpec(op=identity_op(g), data=np.zeros(4), lam=1.0, kind="l2") for _ in range(2)
        ),
        regularizer=WaveletL21(levels=1),
    )
    assert regularizer_value(spec, u, None) == pytest.approx(7.0)


@pytest.mark.parametrize("channels", range(1, 8))
def test_gram_sums_match_einsum_bitwise(channels):
    # the einsums the per-channel Gram sums replaced, verbatim
    rng = np.random.default_rng(channels)
    values = rng.standard_normal((9, 7, channels, 2)) * 10.0 ** rng.integers(-5, 6, (9, 7, 1, 1))
    x, y = values[..., 0], values[..., 1]
    a = np.einsum("...n,...n->...", x, x)
    b = np.einsum("...n,...n->...", x, y)
    c = np.einsum("...n,...n->...", y, y)
    h = 0.5 * (a - c)
    _, _, h_new, b_new, r_new, mid_new = _gram_2x2(values)
    np.testing.assert_array_equal(h_new, h)
    np.testing.assert_array_equal(b_new, b)
    np.testing.assert_array_equal(r_new, np.hypot(h, b))
    np.testing.assert_array_equal(mid_new, 0.5 * (a + c))


@pytest.mark.parametrize("channels", range(1, 8))
def test_group_norms_match_reduction_bitwise(channels):
    # the group ball is the Frobenius ball of one-component site blocks; its
    # cross-channel norms are bitwise NumPy's reduction over the channels
    rng = np.random.default_rng(channels)
    values = rng.standard_normal((9, 7, channels)) * 10.0 ** rng.integers(-5, 6, (9, 7, channels))
    alpha = 10.0 ** rng.integers(-5, 6)
    norms = np.sqrt(np.sum(values**2, axis=-1))
    out = project_group_l2ball(MultiImage(Grid((9, 7)), values), alpha)
    np.testing.assert_array_equal(out.values, values / np.maximum(1.0, norms / alpha)[..., None])
