import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import coupledrec.coupling as cpl
import coupledrec.diffops as diffops
import coupledrec.solver as solver_module
from coupledrec.cli import _gaussian_kernel, random_fourier_mask
from coupledrec.diffops import LinearOp, adjoint_check, op_norm_estimate
from coupledrec.discrepancy import prox_kl_dual, prox_l2_dual
from coupledrec.forward import (
    ForwardOp,
    convolution_op,
    default_n_bins,
    identity_op,
    masked_fourier_op,
    radon_op,
)
from coupledrec.grids import (
    Grid,
    MultiImage,
    SymTensorField,
    VectorField,
    l2_norm,
    pointwise_norms,
    pointwise_norms_array,
)
from coupledrec.problem import ChannelSpec, ProblemSpec, Quadratic, TGV2, WaveletL21
from coupledrec.solver import (
    _KINDS,
    Diagnostics,
    SolveConfig,
    SolverError,
    SolverState,
    _balls,
    _block,
    _data_adjoint,
    _init_state,
    _iterate_shapes,
    _require_finite,
    block_names,
    block_steps,
    channel_data_term,
    check_affine_injectivity,
    estimate_saddle_norm,
    pd_step,
    primal_energy,
    regularizer_value,
    solve,
)


def _quad_problem(grid, f, lam=0.5, weight=1.0):
    return ProblemSpec(
        grid=grid,
        channels=(ChannelSpec(op=identity_op(grid), data=f, lam=lam, kind="l2"),),
        regularizer=Quadratic(weight),
    )


def _smooth(grid, seed=0, channels=1):
    rng = np.random.default_rng(seed)
    return rng.random(grid.dims + (channels,)) + 0.1


def test_energy_zero_for_consistent_constant_tgv():
    g = Grid((6, 6))
    u = MultiImage(g, np.full((6, 6, 1), 2.0))
    spec = ProblemSpec(
        grid=g,
        channels=(ChannelSpec(op=identity_op(g), data=u.channel(0), lam=3.0, kind="l2"),),
        regularizer=TGV2(2.0, 1.0),
    )
    v = VectorField.zeros(g, 1)
    assert primal_energy(spec, u, v) == pytest.approx(0.0, abs=1e-14)


def test_energy_infinite_for_negative_kl_channel():
    g = Grid((3, 3))
    u = MultiImage(g, np.full((3, 3, 1), -0.5))
    spec = ProblemSpec(
        grid=g,
        channels=(ChannelSpec(op=identity_op(g), data=np.ones(9), lam=1.0, kind="kl"),),
        regularizer=Quadratic(1.0),
    )
    assert primal_energy(spec, u) == np.inf


def test_quadratic_identity_closed_form():
    g = Grid((32, 32))
    f = _smooth(g, 1)[..., 0]
    res = solve(_quad_problem(g, f, lam=0.5), SolveConfig(max_iters=2000, tol=1e-13))
    exact = f.reshape(-1) / 2.0
    rel = np.linalg.norm(res.u.values.reshape(-1) - exact) / np.linalg.norm(exact)
    assert rel < 1e-6
    assert res.converged


@pytest.mark.parametrize("lam", [0.1, 1.0, 7.5])
def test_quadratic_identity_general_lambda(lam):
    g = Grid((16, 16))
    f = _smooth(g, 2)[..., 0]
    res = solve(_quad_problem(g, f, lam=lam), SolveConfig(max_iters=3000, tol=1e-13))
    exact = (2.0 * lam / (1.0 + 2.0 * lam)) * f.reshape(-1)
    rel = np.linalg.norm(res.u.values.reshape(-1) - exact) / np.linalg.norm(exact)
    assert rel < 1e-8


def test_pd_step_fixed_point_quadratic():
    # optimality system of min (w/2)||u||^2 + lam||u - f||^2 built in closed
    # form: u* = 2 lam f/(2 lam + w), r* = 2 lam (u* - f); at a fixed point
    # the extrapolated dual is r*, so g = T^* r* = r*
    g = Grid((8, 8))
    lam, w = 1.5, 1.0
    f = _smooth(g, 3)[..., 0]
    spec = _quad_problem(g, f, lam=lam, weight=w)
    u_star = (2.0 * lam / (2.0 * lam + w)) * f
    r_star = 2.0 * lam * (u_star - f)
    state = SolverState(
        x=[u_star[None].copy()], g=[r_star[None].copy()], y=[r_star.reshape(-1)],
        sigma=(0.3,), tau=(0.3,),
    )
    pd_step(spec, state)
    assert np.abs(state.x[0][0] - u_star).max() < 1e-10
    assert np.abs(state.y[0] - r_star.reshape(-1)).max() < 1e-10
    assert np.abs(state.g[0][0] - r_star).max() < 1e-10


def test_only_kl_channels_are_clamped_at_zero():
    # channel 0 is L2, channel 1 is KL; both start negative
    g = Grid((4, 4))
    negated = ForwardOp(
        kind="identity", grid=g, codomain_dim=16,
        _apply=lambda u: -u.reshape(-1), _adjoint=lambda y: -y.reshape(g.dims),
    )
    spec = ProblemSpec(
        grid=g,
        channels=(
            ChannelSpec(op=negated, data=np.ones(16), lam=1.0, kind="l2"),
            ChannelSpec(op=negated, data=np.ones(16), lam=1.0, kind="kl"),
        ),
        regularizer=Quadratic(1.0),
    )
    u0 = np.full((2,) + g.dims, -1.0)
    steps = {"sigma": (0.1, 0.1), "tau": (0.1, 0.1)}
    state = SolverState(x=[u0], g=[np.zeros(u0.shape)], y=[np.zeros(16), np.zeros(16)], **steps)
    pd_step(spec, state)
    assert np.all(state.x[0][0] < 0.0)
    np.testing.assert_array_equal(state.x[0][1], np.zeros(g.dims))


def test_pd_step_extrapolation_identity():
    # T = I: the new g is T^* of the extrapolated dual 2 r+ - r itself
    g = Grid((8, 8))
    spec = _quad_problem(g, _smooth(g, 4)[..., 0])
    r0 = _smooth(g, 6).reshape(-1)
    u, gu = (np.moveaxis(_smooth(g, seed), -1, 0).copy() for seed in (5, 7))
    state = SolverState(x=[u], g=[gu], y=[r0.copy()], sigma=(0.4,), tau=(0.4,))
    pd_step(spec, state)
    np.testing.assert_array_equal(state.g[0][0], (2.0 * state.y[0] - r0).reshape(g.dims))


def test_energy_settles_on_random_problem():
    # PDHG is not monotone per-step; assert the relaxed tail property
    g = Grid((16, 16))
    rng = np.random.default_rng(6)
    spec = ProblemSpec(
        grid=g,
        channels=(
            ChannelSpec(op=identity_op(g), data=rng.random(256), lam=2.0, kind="l2"),
        ),
        regularizer=TGV2(2.0, 1.0),
    )
    res = solve(spec, SolveConfig(max_iters=100, tol=0.0, diag_every=1))
    energies = res.diagnostics.energy
    assert np.all(np.isfinite(energies))
    assert energies[-1] <= energies[10] + 1e-12


def test_dual_feasibility_and_kl_nonnegativity():
    g = Grid((12, 12))
    rng = np.random.default_rng(7)
    spec = ProblemSpec(
        grid=g,
        channels=(
            ChannelSpec(op=identity_op(g), data=rng.random(144) + 0.2, lam=3.0, kind="kl"),
        ),
        regularizer=TGV2(2.0, 1.0, coupling="frobenius"),
    )
    res = solve(spec, SolveConfig(max_iters=60, tol=0.0))
    p, q, r = res.state.y
    assert pointwise_norms(VectorField.from_cm(g, p), "frobenius").max() <= 1.0 + 1e-12
    assert pointwise_norms(SymTensorField.from_cm(g, q), "frobenius").max() <= 2.0 + 1e-12
    assert res.u.values.min() >= 0.0
    # KL dual iterates stay strictly below lambda on the data support
    support = spec.channels[0].data > 0
    assert np.all(r[support] < 3.0)


def test_nuclear_dual_stays_in_the_spectral_ball():
    # two channels give rank-2 site blocks, whose nuclear norm exceeds their
    # spectral norm; the dual ball of nuclear coupling is the spectral ball
    g = Grid((12, 12))
    rng = np.random.default_rng(13)
    spec = ProblemSpec(
        grid=g,
        channels=tuple(
            ChannelSpec(op=identity_op(g), data=rng.random(144), lam=3.0, kind="l2")
            for _ in range(2)
        ),
        regularizer=TGV2(2.0, 1.0, coupling="nuclear"),
    )
    p = solve(spec, SolveConfig(max_iters=60, tol=0.0)).state.y[0]
    spectral = np.linalg.svd(VectorField.from_cm(g, p).values, compute_uv=False)[..., 0]
    assert spectral.max() <= 1.0 + 1e-12
    assert np.sum(spectral > 1.0 - 1e-9) > 0  # the constraint is active somewhere


def test_wavelet_mode_runs_and_shrinks():
    g = Grid((16, 16))
    f = _smooth(g, 8)[..., 0]
    spec = ProblemSpec(
        grid=g,
        channels=(ChannelSpec(op=identity_op(g), data=f, lam=5.0, kind="l2"),),
        regularizer=WaveletL21(levels=2),
    )
    res = solve(spec, SolveConfig(max_iters=800, tol=1e-11))
    assert res.converged
    # heavy shrinkage at small lambda, mild at large: sanity on the tradeoff
    loose = solve(
        ProblemSpec(
            grid=g,
            channels=(ChannelSpec(op=identity_op(g), data=f, lam=0.05, kind="l2"),),
            regularizer=WaveletL21(levels=2),
        ),
        SolveConfig(max_iters=800, tol=1e-11),
    )
    d_tight = np.linalg.norm(res.u.values.reshape(-1) - f.reshape(-1))
    d_loose = np.linalg.norm(loose.u.values.reshape(-1) - f.reshape(-1))
    assert d_tight < d_loose


def test_determinism_bitwise():
    g = Grid((16, 16))
    rng = np.random.default_rng(9)
    f = rng.random(256)
    spec = ProblemSpec(
        grid=g,
        channels=(ChannelSpec(op=identity_op(g), data=f, lam=1.0, kind="l2"),),
        regularizer=TGV2(2.0, 1.0),
    )
    cfg = SolveConfig(max_iters=50, tol=0.0, diag_every=1)
    a = solve(spec, cfg)
    b = solve(spec, cfg)
    np.testing.assert_array_equal(a.u.values, b.u.values)
    assert a.diagnostics.energy == b.diagnostics.energy
    assert a.diagnostics.rel_change == b.diagnostics.rel_change


def test_affine_injectivity_guard():
    g = Grid((8, 8))
    zero_op = ForwardOp(
        kind="identity",
        grid=g,
        codomain_dim=64,
        _apply=lambda u: np.zeros(64),
        _adjoint=lambda y: np.zeros(g.dims),
    )
    spec = ProblemSpec(
        grid=g,
        channels=(ChannelSpec(op=zero_op, data=np.zeros(64), lam=1.0, kind="l2"),),
        regularizer=TGV2(2.0, 1.0),
    )
    with pytest.raises(SolverError):
        check_affine_injectivity(spec)
    with pytest.raises(SolverError, match="affine injectivity"):
        solve(spec, SolveConfig(max_iters=5))


@pytest.mark.parametrize("dims", [(1, 16), (16, 1)])
def test_tgv_solve_with_a_length_one_axis_is_bitwise_the_1d_solve(dims):
    # that axis adds no affine image and no difference: its v component stays 0
    cfg = SolveConfig(max_iters=300, tol=0.0, diag_every=1)
    line = solve(_identity_pair(Grid((16,)), TGV2(2.0, 1.0)), cfg)
    flat = solve(_identity_pair(Grid(dims), TGV2(2.0, 1.0)), cfg)
    np.testing.assert_array_equal(flat.u.values.reshape(16, 2), line.u.values)
    long_axis = dims.index(16)
    v_long = flat.v.values[..., long_axis].reshape(16, 2)
    np.testing.assert_array_equal(v_long, line.v.values[..., 0])
    assert not flat.v.values[..., 1 - long_axis].any()
    assert flat.diagnostics.energy == line.diagnostics.energy


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": np.nan}, "tol"),
        ({"tol": np.inf}, "tol"),
        ({"tol": -1.0}, "tol"),
        ({"max_iters": 0}, "max_iters"),
        ({"max_iters": -3}, "max_iters"),
        ({"diag_every": -1}, "diag_every"),
        ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": 20.0}, "max_iters"),
        ({"max_iters": True}, "max_iters"),
        ({"max_iters": "20"}, "max_iters"),
        ({"diag_every": 2.5}, "diag_every"),
        ({"diag_every": np.nan}, "diag_every"),
        ({"diag_every": np.inf}, "diag_every"),
        ({"diag_every": True}, "diag_every"),
    ],
)
def test_solve_config_rejects_bad_numbers(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SolveConfig(**kwargs)
    assert SolveConfig(tol=0.0, max_iters=1, diag_every=1).tol == 0.0
    assert SolveConfig(max_iters=np.int64(3), diag_every=np.int32(2)).max_iters == 3


def test_regularizer_value_quadratic():
    g = Grid((4, 4))
    u = MultiImage(g, np.full((4, 4, 1), 2.0))
    spec = _quad_problem(g, np.zeros(16), weight=3.0)
    assert regularizer_value(spec, u, None) == pytest.approx(0.5 * 3.0 * 4.0 * 16)


def test_non_finite_iterate_raises_solver_error():
    g = Grid((8, 8))
    f = np.zeros(64)
    f[::2] = 1.7e308
    spec = ProblemSpec(
        grid=g,
        channels=(ChannelSpec(op=identity_op(g), data=f, lam=1.0, kind="l2"),),
        regularizer=TGV2(2.0, 1.0, "frobenius"),
    )
    with np.errstate(over="ignore"), pytest.raises(SolverError, match="non-finite"):
        solve(spec, SolveConfig(max_iters=50, tol=0.0))


def test_huge_finite_iterates_step_without_solver_error():
    # entries of 1e200 are finite, though their squares are not: the finite
    # check must pass the state, and no overflow warning may escape
    g = Grid((6, 6))
    spec = _quad_problem(g, np.zeros(36))
    state = _init_state(spec, estimate_saddle_norm(spec))
    state.x[0] = np.full(state.x[0].shape, 1e200)
    state.y[0] = np.full(state.y[0].shape, -1e200)
    pd_step(spec, state)
    assert state.iteration == 1
    assert np.all(np.isfinite(state.x[0])) and np.all(np.isfinite(state.g[0]))
    assert np.abs(state.x[0]).max() > 1e199 and np.abs(state.g[0]).max() > 1e199
    _require_finite(1, "x", [np.array([1e200, -1e300, 1.0])])
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(SolverError, match=r"non-finite iterate x\[1\] at iteration 4"):
            _require_finite(4, "x", [np.ones(3), np.array([1e200, bad, 1.0])])


def test_overflow_inside_tgv_block_raises_solver_error():
    # u+ = u is finite, but its forward differences overflow to +-inf in grad,
    # and the non-finite duals reach g+
    g = Grid((12, 12))
    rng = np.random.default_rng(11)
    spec = ProblemSpec(
        grid=g,
        channels=(ChannelSpec(op=identity_op(g), data=rng.random(144), lam=1.0, kind="l2"),),
        regularizer=TGV2(2.0, 1.0),
    )
    state = solve(spec, SolveConfig(max_iters=5, tol=0.0)).state
    rows = np.where(np.arange(12) % 2 == 0, 1.5e308, -1.5e308)
    state.x[0] = np.broadcast_to(rows[None, :, None], (1, 12, 12)).copy()
    state.g[0] = np.zeros(state.x[0].shape)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverError, match="non-finite"):
        pd_step(spec, state)


def test_diagnostics_rows_name_their_iterations():
    g = Grid((8, 8))
    spec = _quad_problem(g, _smooth(g, 3).reshape(-1))
    res = solve(spec, SolveConfig(max_iters=10, tol=0.0, diag_every=3))
    diag = res.diagnostics
    assert diag.iterations == [3, 6, 9]
    assert len(diag.energy) == len(diag.data_terms) == len(diag.reg_value) == 3
    assert len(diag.rel_change) == 10


def test_diagnostics_energy_equals_primal_energy():
    g = Grid((10, 10))
    rng = np.random.default_rng(12)
    spec = ProblemSpec(
        grid=g,
        channels=(
            ChannelSpec(op=identity_op(g), data=rng.random(100), lam=2.0, kind="l2"),
            ChannelSpec(op=identity_op(g), data=rng.random(100) + 0.1, lam=3.0, kind="kl"),
        ),
        regularizer=TGV2(2.0, 1.0, "nuclear"),
    )
    for iters in (1, 7):
        res = solve(spec, SolveConfig(max_iters=iters, tol=0.0, diag_every=1))
        diag = res.diagnostics
        assert diag.energy[-1] == primal_energy(spec, res.u, res.v)
        assert diag.reg_value[-1] == regularizer_value(spec, res.u, res.v)


def _identity_pair(grid, regularizer):
    rng = np.random.default_rng(14)
    return ProblemSpec(
        grid=grid,
        channels=(
            ChannelSpec(op=identity_op(grid), data=rng.random(grid.sites), lam=1.0, kind="l2"),
            ChannelSpec(op=identity_op(grid), data=rng.random(grid.sites) + 0.1, lam=2.0, kind="kl"),
        ),
        regularizer=regularizer,
    )


SADDLE_MODES = {
    "tgv_frobenius": (Grid((6, 6)), TGV2(2.0, 1.0, "frobenius")),
    "tgv_nuclear": (Grid((6, 6)), TGV2(2.0, 1.0, "nuclear")),
    "tgv_3d": (Grid((3, 3, 2), (1.0, 0.5, 2.0)), TGV2(2.0, 1.0)),
    "wavelet": (Grid((4, 4)), WaveletL21(levels=2)),
    "quadratic": (Grid((6, 6)), Quadratic(1.0)),
}


def _channel_op(grid, kind):
    if kind == "identity":
        return identity_op(grid)
    if kind == "blur":
        return convolution_op(grid, _gaussian_kernel(1.0, grid.ndim))
    if kind == "fourier":
        return masked_fourier_op(grid, random_fourier_mask(grid.dims, 0.5, seed=4))
    return radon_op(grid, np.arange(6) * np.pi / 6, default_n_bins(grid))


# channel 2 is KL, the others L2; on the 3-D grid a blur stands in for the
# Radon transform, which is 2-D only
CHANNEL_MIXES = {
    "identity_identity": ("identity", "identity"),
    "blur_radon": ("blur", "radon"),
    "fourier_identity": ("fourier", "identity"),
    "radon_fourier_blur": ("radon", "fourier", "blur"),
}


def _reachable(op, data):
    """``data`` with zeros on the bins that ``op`` never reaches, where positive
    KL data would make every objective +inf."""
    if op.empty_rows is not None:
        data[op.empty_rows] = 0.0
    return data


def _mixed_problem(mode, mix):
    grid, reg = SADDLE_MODES[mode]
    kinds = [k if grid.ndim == 2 or k != "radon" else "blur" for k in CHANNEL_MIXES[mix]]
    rng = np.random.default_rng(16)
    channels = []
    for i, kind in enumerate(kinds):
        op = _channel_op(grid, kind)
        data = rng.random(op.codomain_dim) + 0.1
        kind = "kl" if i == 1 else "l2"
        if kind == "kl":
            data = _reachable(op, data)
        channels.append(ChannelSpec(op=op, data=data, lam=1.0, kind=kind))
    return ProblemSpec(grid=grid, channels=tuple(channels), regularizer=reg)


# K_reg^T of each regularizer, formed in new arrays: the reference that the
# solver's in-place ``_Block.adjoint_over`` must match bitwise.  It gives the
# u part (None if K_reg ignores u), then one array per primal iterate.
_REG_ADJOINTS = {
    TGV2: lambda reg, h, p, q: (-diffops.div_array(p, h), -p - diffops.sym_div_array(q, h)),
    WaveletL21: lambda reg, h, s: (cpl.haar_inverse_array(s, reg.levels),),
}


def _reg_adjoint(reg, h, *duals):
    return _REG_ADJOINTS.get(type(reg), lambda reg, h: (None,))(reg, h, *duals)


def _saddle_operator(problem):
    """K as a flat LinearOp from (u, *primal) to (*duals, r_1, ..., r_N), built
    from the regularizer's table entry and the channel operators.

    A dual variable with inner-product weights w is stored as sqrt(w) times
    its entries, so that the Euclidean dot product is the weighted one.
    """
    reg, h = problem.regularizer, problem.grid.spacing
    block = _block(reg)
    x_shapes, y_shapes = _iterate_shapes(problem)
    ops = [c.op for c in problem.channels]
    roots = [_KINDS[name].weights(len(h)) for name in block.dual]
    # the weights scale the leading, component axis of a component-major dual
    axes = (1,) * (len(h) + 1)
    roots = [None if w is None else np.sqrt(w).reshape((-1,) + axes) for w in roots]

    def split(flat, shapes):
        ends = np.cumsum([int(np.prod(s)) for s in shapes])
        return [piece.reshape(s) for piece, s in zip(np.split(flat, ends[:-1]), shapes)]

    def apply(x):
        u, *xs = split(x, x_shapes)
        rows = zip(block.apply(reg, h, u, *xs), roots)
        parts = [(k if w is None else k * w).reshape(-1) for k, w in rows]
        return np.concatenate(parts + [op.apply(u[i]) for i, op in enumerate(ops)])

    def adjoint(y):
        pieces = split(y, y_shapes)
        duals = [k if w is None else k / w for k, w in zip(pieces, roots)]
        u_part, *x_parts = _reg_adjoint(reg, h, *duals)
        tstar = _data_adjoint(problem, pieces[len(duals) :])
        if u_part is not None:
            tstar += u_part
        return np.concatenate([tstar.reshape(-1)] + [g.reshape(-1) for g in x_parts])

    domain = sum(int(np.prod(s)) for s in x_shapes)
    return LinearOp(apply, adjoint, domain, sum(int(np.prod(s)) for s in y_shapes))


def _channel_slices(problem):
    """Row and column indices, in the flat layout of ``_saddle_operator``, of
    each channel's slice of each block of K: ``rows[c]`` holds the slices of the
    duals, then r_c; ``cols[c]`` the slice of u, then those of the primals."""
    d, n = problem.grid.ndim, problem.n_channels
    n_reg = len(_block(problem.regularizer).dual)
    x_shapes, y_shapes = _iterate_shapes(problem)

    def layout(shapes):
        """Each block's indices; a block with a channel axis split by channel."""
        start, out = 0, []
        for shape in shapes:
            idx = np.arange(start, start + int(np.prod(shape))).reshape(shape)
            start += idx.size
            if len(shape) == 1:  # a channel's r_c
                out.append(idx)
            else:  # the channel axis comes just before the grid axes
                out.append([idx.take(c, axis=len(shape) - d - 1).reshape(-1) for c in range(n)])
        return out

    row_blocks, col_blocks = layout(y_shapes), layout(x_shapes)
    rows = [[b[c] for b in row_blocks[:n_reg]] + [row_blocks[n_reg + c]] for c in range(n)]
    cols = [[b[c] for b in col_blocks] for c in range(n)]
    return rows, cols


def _top(matrix):
    return np.linalg.svd(matrix, compute_uv=False)[0] if matrix.size else 0.0


@pytest.mark.parametrize("mode", sorted(SADDLE_MODES))
def test_saddle_operator_adjoint_and_norm(mode):
    # K's blocks against the block norms the steps are set from
    spec = _identity_pair(*SADDLE_MODES[mode])
    op = _saddle_operator(spec)
    assert adjoint_check(op) < 1e-12
    dense = np.stack([op.apply(e) for e in np.eye(op.domain_dim)], axis=1)
    norms = estimate_saddle_norm(spec)
    rows, cols = _channel_slices(spec)
    n_reg = len(_block(spec.regularizer).dual)
    for c in range(spec.n_channels):
        for i, row in enumerate(rows[c]):
            for j, col in enumerate(cols[c]):
                top = _top(dense[np.ix_(row, col)])
                if i == n_reg:
                    # the solver's power iteration of T_c (at most 100 iterations,
                    # stopping once the estimate settles)
                    assert norms[c, i, j] / 1.01 == pytest.approx(top, abs=1e-8)
                elif (i, j) == (1, 1) and isinstance(spec.regularizer, TGV2):
                    assert norms[c, i, j] >= top * (1 - 1e-12)  # ||E||: a bound
                else:
                    assert norms[c, i, j] == pytest.approx(top, rel=1e-12, abs=1e-300)
        # K is block diagonal over the channels
        for other in range(spec.n_channels):
            if other != c:
                assert not dense[np.ix_(np.concatenate(rows[c]), np.concatenate(cols[other]))].any()


@pytest.mark.parametrize("mode", sorted(SADDLE_MODES))
def test_regularizer_value_pairs_with_its_dual_projection(mode):
    # For k = K_reg x and every site outside its ball, the projection P_j of
    # c * k_j onto the radius-alpha_j ball of the dual norm is alpha_j times
    # the dual direction of k_j, so <k_j, P_j(c k_j)>_w = alpha_j sum ||k_j||:
    # the K_reg part of R is this pairing, summed over the duals.
    grid, reg = SADDLE_MODES[mode]
    problem, block, h = _identity_pair(grid, reg), _block(reg), grid.spacing
    rng = np.random.default_rng(17)
    u, *primal = (rng.standard_normal(shape) for shape in _iterate_shapes(problem)[0])
    ks = block.apply(reg, h, u, *primal)
    c = 1e8
    pairing = 0.0
    for name, k, ball in zip(block.dual, ks, _balls(reg, h, [c * k for k in ks])):
        sites, radius, coupling, weights = ball
        smallest = nonzero = pointwise_norms_array(sites, weights=weights)
        if coupling == "nuclear":
            blocks = np.moveaxis(sites, (0, 1), (-2, -1))  # (*dims, d, N)
            smallest = np.linalg.svd(blocks, compute_uv=False)[..., -1]
        assert np.all(smallest.reshape(-1)[nonzero > 0] > radius)  # nonzero sites lie outside
        w = _KINDS[name].weights(grid.ndim)
        w = 1.0 if w is None else w.reshape((-1,) + (1,) * (grid.ndim + 1))
        projected = cpl.project_dual_ball_array(*ball).reshape(k.shape)
        pairing += float(np.sum(k * projected * w))
    v = VectorField.from_cm(grid, primal[0]) if block.primal else None
    u_field = MultiImage.from_cm(grid, u)
    value = regularizer_value(problem, u_field, v) - block.value(reg, h, u, *primal)
    assert value == pytest.approx(pairing, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mix", sorted(CHANNEL_MIXES))
@pytest.mark.parametrize("mode", sorted(SADDLE_MODES))
def test_block_steps_bound_the_scaled_operator(mode, mix):
    spec = _mixed_problem(mode, mix)
    op = _saddle_operator(spec)
    dense = np.stack([op.apply(e) for e in np.eye(op.domain_dim)], axis=1)
    sigma, tau = block_steps(estimate_saddle_norm(spec))
    rows, cols = _channel_slices(spec)
    n, n_reg = spec.n_channels, len(_block(spec.regularizer).dual)
    row_steps, col_steps = np.empty(op.codomain_dim), np.empty(op.domain_dim)
    for c in range(n):
        for i, row in enumerate(rows[c]):
            row_steps[row] = sigma[i] if i < n_reg else sigma[n_reg + c]
        for j, col in enumerate(cols[c]):
            col_steps[col] = tau[c] if j == 0 else tau[n + j - 1]
    scaled = np.sqrt(row_steps)[:, None] * dense * np.sqrt(col_steps)[None, :]
    assert _top(scaled) <= 0.99
    assert len(sigma) == len(block_names(spec)[0]) and len(tau) == len(block_names(spec)[1])


@pytest.mark.parametrize(
    "reg", [TGV2(2.0, 1.0, "nuclear"), WaveletL21(levels=2), Quadratic(0.5)], ids=str
)
def test_pd_step_gives_each_block_its_own_step(reg):
    # the reference repeats pd_step's float operations out of place, so every
    # block must match bit for bit
    spec = _identity_pair(Grid((8, 8)), reg)
    block, h = _block(reg), spec.grid.spacing
    dual_names, primal_names = block_names(spec)
    sigma = tuple(0.1 + 0.03 * k for k in range(len(dual_names)))
    tau = tuple(0.2 + 0.05 * k for k in range(len(primal_names)))
    rng = np.random.default_rng(18)
    x_shapes, y_shapes = _iterate_shapes(spec)
    x, g = zip(*[(rng.random(shape), rng.random(shape)) for shape in x_shapes])
    y = [rng.random(shape) for shape in y_shapes]
    x0, g0, y0 = ([a.copy() for a in arrays] for arrays in (x, g, y))
    state = SolverState(x=list(x), g=list(g), y=y, sigma=sigma, tau=tau)
    pd_step(spec, state)

    n_reg, n = len(block.dual), spec.n_channels
    for j, t in enumerate(tau[n:], start=1):
        np.testing.assert_array_equal(state.x[j], x0[j] - t * g0[j])
    for i, (c, t) in enumerate(zip(spec.channels, tau[:n])):
        expected = x0[0][i] - t * g0[0][i]
        if isinstance(reg, Quadratic):
            expected = expected / (1.0 + t * reg.weight)
        if c.kind == "kl":
            expected = np.maximum(expected, 0.0)
        np.testing.assert_array_equal(state.x[0][i], expected)

    ks = block.apply(reg, h, *state.x)
    hats = [y + s * k for y, k, s in zip(y0, ks, sigma)]
    duals = [
        cpl.project_dual_ball_array(*ball).reshape(y.shape)
        for y, ball in zip(hats, _balls(reg, h, hats))
    ]
    for i, (c, s) in enumerate(zip(spec.channels, sigma[n_reg:])):
        r, pred = y0[n_reg + i], c.op.apply(state.x[0][i])
        if c.kind == "l2":
            duals.append(prox_l2_dual(r + s * (pred - c.data), s, c.lam))
        else:
            duals.append(prox_kl_dual(r + s * (pred + c.background), c.data, s, c.lam))
    assert len(state.y) == len(duals)
    for actual, expected in zip(state.y, duals):
        np.testing.assert_array_equal(actual, expected)
    bars = [2.0 * y - y_old for y, y_old in zip(duals, y0)]
    u_part, *x_parts = _reg_adjoint(reg, h, *bars[:n_reg])
    gu = _data_adjoint(spec, bars[n_reg:])
    if u_part is not None:
        gu += u_part
    assert len(state.g) == len(state.x) == 1 + len(x_parts)
    for actual, expected in zip(state.g, [gu, *x_parts]):
        np.testing.assert_array_equal(actual, expected)


@pytest.mark.parametrize(
    "reg", [TGV2(2.0, 1.0, "nuclear"), TGV2(2.0, 1.0, "frobenius"), WaveletL21(levels=2)], ids=str
)
def test_adjoint_over_the_duals_is_bitwise_the_adjoint(reg):
    # entries of +-0 and +-1 only: -y and 0 - y differ at y = +0, so a kernel
    # that forms the one where the adjoint forms the other gives other bytes
    spec = _identity_pair(Grid((8, 8)), reg)
    block, h = _block(reg), spec.grid.spacing
    shapes = _iterate_shapes(spec)[1][: len(block.dual)]
    rng = np.random.default_rng(29)
    duals = [rng.choice([0.0, -0.0, 1.0, -1.0], size=shape) for shape in shapes]
    expected = _reg_adjoint(reg, h, *duals)
    actual = block.adjoint_over(reg, h, *[y.copy() for y in duals])
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.tobytes() == e.tobytes()


# What one pd_step may allocate, as a multiple of the bytes of its iterates
# x, g and y: the new duals and K x+ are one y each, and the kernels' scratch
# comes on top.  TGV and wavelets allocate about 1.3 here (32 x 32, two
# channels); a step that kept every old and extrapolated dual alive through
# K^T, or formed K_reg^T in new arrays, allocates about 1.85.
STEP_ALLOCATION_BOUND = 1.4


@pytest.mark.parametrize(
    "reg",
    [TGV2(2.0, 1.0, "nuclear"), TGV2(2.0, 1.0, "frobenius"), WaveletL21(levels=2), Quadratic(0.5)],
    ids=str,
)
def test_one_step_allocates_a_bounded_multiple_of_its_iterates(reg):
    spec = _identity_pair(Grid((32, 32)), reg)
    state = _init_state(spec, estimate_saddle_norm(spec))
    for _ in range(3):  # past the zero start, so every prox and clip does work
        pd_step(spec, state)
    held = sum(a.nbytes for a in state.x + state.g + state.y)
    tracemalloc.start()
    try:
        pd_step(spec, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= STEP_ALLOCATION_BOUND * held, f"{peak / held:.3f} x the iterates' bytes"


def _reference_norm_estimate(op, iters, seed):
    """The power iteration before its stop rule: always ``iters`` iterations,
    with the same pairwise-sum norms."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.domain_dim)
    nx = l2_norm(x)
    if nx == 0:
        return 0.0
    x /= nx
    est = 0.0
    for _ in range(iters):
        y = op.apply(x)
        ny = l2_norm(y)
        if ny == 0:
            return 0.0
        est = ny
        x = op.adjoint(y)
        nx = l2_norm(x)
        if nx == 0:
            return float(est)
        x /= nx
    return float(est)


def _counted(op):
    """``op`` with a list that records each of its applies."""
    calls = []

    def apply(x):
        calls.append(1)
        return op.apply(x)

    return LinearOp(apply, op.adjoint, op.domain_dim, op.codomain_dim), calls


def test_norm_estimate_stops_at_once_when_k_is_an_isometry():
    # a rate sweep's channel operator: the identity, T^T T = I
    op = identity_op(Grid((8, 8))).as_linear_op()
    counted, calls = _counted(op)
    est = op_norm_estimate(counted, iters=100, seed=0)
    assert len(calls) <= 3
    assert est == _reference_norm_estimate(op, iters=100, seed=0) == 1.0


def test_norm_estimate_settles_on_the_top_singular_value_of_tgv_radon():
    g = Grid((6, 6))
    rng = np.random.default_rng(15)
    radon = radon_op(g, np.arange(6) * np.pi / 6, default_n_bins(g))
    spec = ProblemSpec(
        grid=g,
        channels=(
            ChannelSpec(op=identity_op(g), data=rng.random(g.sites), lam=1.0, kind="l2"),
            ChannelSpec(
                op=radon,
                data=_reachable(radon, rng.random(radon.codomain_dim) + 0.1),
                lam=2.0,
                kind="kl",
            ),
        ),
        regularizer=TGV2(2.0, 1.0, "nuclear"),
    )
    op = radon.as_linear_op()
    counted, calls = _counted(op)
    est = op_norm_estimate(counted, iters=100, seed=0)
    dense = np.stack([op.apply(e) for e in np.eye(op.domain_dim)], axis=1)
    top = np.linalg.svd(dense, compute_uv=False)[0]
    assert len(calls) < 100
    assert est == pytest.approx(top, abs=1e-10)
    assert est <= top + 1e-12
    # stopping early returns what a cap at the stopping iteration returns
    assert est == _reference_norm_estimate(op, iters=len(calls), seed=0)
    assert estimate_saddle_norm(spec)[1, -1, 0] == 1.01 * est


# --- the uniform case against the scalar-step iteration ------------------------


def _scalar_step_pd_step(problem, state):
    """``pd_step`` with one sigma and one tau for all of K, written out of
    place: x+ = prox_G(x - tau g), y+ = prox_F*(y + sigma K x+),
    g+ = K^T (2 y+ - y)."""
    reg, h = problem.regularizer, problem.grid.spacing
    block = _block(reg)
    n_reg = len(block.dual)
    sigma, tau = state.sigma, state.tau

    u, *primal = (x - tau * g for x, g in zip(state.x, state.g))
    if block.prox is not None:
        u = u / (1.0 + tau * reg.weight)
    for i in problem.kl_channels:
        u[i] = np.maximum(u[i], 0.0)
    x = [u, *primal]
    _require_finite(state.iteration + 1, "x", x)

    ks = block.apply(reg, h, *x)
    hats = [y + sigma * k for y, k in zip(state.y, ks)]
    y_new = [
        cpl.project_dual_ball_array(*ball).reshape(y.shape)
        for y, ball in zip(hats, _balls(reg, h, hats))
    ]
    for i, c in enumerate(problem.channels):
        r, pred = state.y[n_reg + i], c.op.apply(u[i])
        if c.kind == "l2":
            y_new.append(prox_l2_dual(r + sigma * (pred - c.data), sigma, c.lam))
        else:
            y_new.append(prox_kl_dual(r + sigma * (pred + c.background), c.data, sigma, c.lam))
    bars = [2.0 * y - y0 for y, y0 in zip(y_new, state.y)]
    u_part, *x_parts = _reg_adjoint(reg, h, *bars[:n_reg])
    gu = _data_adjoint(problem, bars[n_reg:])
    if u_part is not None:
        gu += u_part
    g = [gu, *x_parts]
    _require_finite(state.iteration + 1, "g", g)
    return replace(state, x=x, g=g, y=y_new, iteration=state.iteration + 1)


def _assert_states_equal(a, b):
    for name, xs, ys in (("x", a.x, b.x), ("g", a.g, b.g), ("y", a.y, b.y)):
        assert len(xs) == len(ys), name
        for j, (x, y) in enumerate(zip(xs, ys)):
            assert x.tobytes() == y.tobytes(), f"{name}[{j}]"


def test_uniform_steps_match_the_scalar_step_iteration():
    # the rate sweep's shape: identity channels, L2 and KL, under a quadratic penalty
    spec = _identity_pair(Grid((8, 8)), Quadratic(0.05))
    norms = estimate_saddle_norm(spec)
    np.testing.assert_array_equal(norms, np.full((2, 1, 1), 1.01))
    state = _init_state(spec, norms)
    step = 0.99 / 1.01
    assert (state.sigma, state.tau) == ((step, step), (step, step))
    # pd_step writes x+ over g: the reference gets its own g
    scalar = replace(state, sigma=step, tau=step, g=[g.copy() for g in state.g])
    for _ in range(150):
        pd_step(spec, state)
        scalar = _scalar_step_pd_step(spec, scalar)
    _assert_states_equal(state, scalar)
    assert state.iteration == 150


# --- the component-major iterates ---------------------------------------------


@pytest.mark.parametrize(
    "mode", ["tgv_frobenius", "tgv_nuclear", "tgv_nuclear_3d", "wavelet", "quadratic"]
)
def test_every_iterate_stays_c_contiguous_and_component_major(mode):
    # the state holds K's blocks in the order of block_names, and the
    # per-channel and per-component slices are contiguous images only if every
    # iterate is C-contiguous in the shape of _iterate_shapes
    if mode == "tgv_nuclear_3d":  # its clip takes the batched-SVD path
        spec = _identity_pair(Grid((3, 4, 2)), TGV2(2.0, 1.0, "nuclear"))
    else:
        spec = _mixed_problem(mode, "fourier_identity")
    grid, block = spec.grid, _block(spec.regularizer)
    x_shapes, y_shapes = _iterate_shapes(spec)
    # x is u, then the block's primal iterates
    base = (spec.n_channels,) + grid.dims
    assert x_shapes == [base] + [_KINDS[name].tail(grid.ndim) + base for name in block.primal]
    state = _init_state(spec, estimate_saddle_norm(spec))
    for _ in range(3):
        pd_step(spec, state, Diagnostics())
        assert len(state.y) == len(state.sigma) == len(block_names(spec)[0])
        assert len(state.x) == len(state.g) == 1 + len(block.primal)
        for name, arrays, shapes in (
            ("x", state.x, x_shapes), ("g", state.g, x_shapes), ("y", state.y, y_shapes)
        ):
            for j, (a, shape) in enumerate(zip(arrays, shapes, strict=True)):
                assert a is not None, (name, j)
                assert a.shape == shape, (name, j)
                assert a.flags.c_contiguous, (name, j)


# --- norms shared through the operators ---------------------------------------


def _count_power_iterations(monkeypatch) -> Counter:
    """Count ``diffops.op_norm_estimate`` calls by the operator they measure."""
    calls = Counter()
    original = diffops.op_norm_estimate

    def counted(op, *args, **kwargs):
        calls[op.domain_dim, op.codomain_dim] += 1
        return original(op, *args, **kwargs)

    monkeypatch.setattr(diffops, "op_norm_estimate", counted)
    return calls


@pytest.mark.parametrize(
    "reg", [TGV2(2.0, 1.0, "nuclear"), WaveletL21(levels=2), Quadratic(1.0)], ids=str
)
def test_solve_with_prepared_setup_is_bitwise_equal(reg, monkeypatch):
    # the second solve reuses each operator's norm from the first
    calls = _count_power_iterations(monkeypatch)
    g = Grid((8, 8))
    radon = radon_op(g, np.arange(6) * np.pi / 6, default_n_bins(g))
    rng = np.random.default_rng(19)
    spec = ProblemSpec(
        grid=g,
        channels=(
            ChannelSpec(op=identity_op(g), data=rng.random(g.sites), lam=1.0, kind="l2"),
            ChannelSpec(
                op=radon, data=_reachable(radon, rng.random(radon.codomain_dim)), lam=2.0, kind="kl"
            ),
        ),
        regularizer=reg,
    )
    cfg = SolveConfig(max_iters=40, tol=0.0, diag_every=7)
    first, second = solve(spec, cfg), solve(spec, cfg)
    assert calls == {(g.sites, g.sites): 1, (g.sites, radon.codomain_dim): 1}
    assert (first.state.sigma, first.state.tau) == (second.state.sigma, second.state.tau)
    assert (first.state.sigma, first.state.tau) == block_steps(estimate_saddle_norm(spec))
    _assert_states_equal(first.state, second.state)
    assert first.diagnostics == second.diagnostics


def test_solve_rejects_a_zero_saddle_operator():
    g = Grid((4, 4))
    zero_op = ForwardOp(
        kind="identity", grid=g, codomain_dim=16,
        _apply=lambda u: np.zeros(16), _adjoint=lambda y: np.zeros(g.dims),
    )
    spec = ProblemSpec(
        grid=g,
        channels=(ChannelSpec(op=zero_op, data=np.zeros(16), lam=1.0, kind="l2"),),
        regularizer=Quadratic(1.0),
    )
    with pytest.raises(SolverError, match="zero norm"):
        solve(spec, SolveConfig(max_iters=2))


# --- one product with K per iteration ------------------------------------------


@pytest.mark.parametrize("mode", ["tgv_nuclear", "tgv_frobenius", "wavelet", "quadratic"])
def test_every_row_measures_the_iterate_it_names(mode):
    # Fourier/L2 and identity/KL channels: the KL row at the zero start is +inf
    spec = _mixed_problem(mode, "fourier_identity")
    grid, iters = spec.grid, 20
    state = _init_state(spec, estimate_saddle_norm(spec))
    diag = Diagnostics()
    for k in range(1, iters + 1):
        pd_step(spec, state, diag)
        assert diag.iterations[-1] == state.iteration == k
        u_cm, *primal = state.x
        u = MultiImage.from_cm(grid, u_cm)
        v = VectorField.from_cm(grid, *primal) if primal else None
        assert diag.energy[-1] == pytest.approx(primal_energy(spec, u, v), rel=1e-12)
        assert diag.reg_value[-1] == pytest.approx(regularizer_value(spec, u, v), rel=1e-12)
        data_terms = [channel_data_term(spec, u, i) for i in range(spec.n_channels)]
        assert diag.data_terms[-1] == pytest.approx(data_terms, rel=1e-12)
    assert np.isfinite(diag.energy[1:]).all()

    # solve records these same rows, and recording a row never perturbs the
    # iteration; by default it records none
    results = [
        solve(spec, SolveConfig(max_iters=iters, tol=0.0, diag_every=every))
        for every in (1, 7, iters, SolveConfig().diag_every)
    ]
    assert results[0].diagnostics.energy == diag.energy
    assert [r.diagnostics.iterations for r in results] == [list(range(1, 21)), [7, 14], [20], []]
    default = results[-1].diagnostics
    assert default.energy == default.data_terms == default.reg_value == []
    assert default.rel_change == results[0].diagnostics.rel_change
    assert len(default.rel_change) == iters
    for result in results:
        _assert_states_equal(result.state, state)


def _counting(op):
    """``op`` as a new ForwardOp that counts its applies and adjoints."""
    calls = Counter()

    def counted(name, fn):
        def call(x):
            calls[name] += 1
            return fn(x)

        return call

    wrapped = ForwardOp(
        kind=op.kind, grid=op.grid, codomain_dim=op.codomain_dim,
        _apply=counted("apply", op._apply), _adjoint=counted("adjoint", op._adjoint),
    )
    assert wrapped.norm > 0  # its power iteration runs once, outside the count
    calls.clear()
    return wrapped, calls


@pytest.mark.parametrize(
    "reg", [TGV2(2.0, 1.0, "nuclear"), WaveletL21(levels=2), Quadratic(1.0)], ids=str
)
def test_each_iteration_applies_k_once_and_its_adjoint_once(reg, monkeypatch):
    g = Grid((8, 8))
    rng = np.random.default_rng(20)
    radon, calls = _counting(radon_op(g, np.arange(6) * np.pi / 6, default_n_bins(g)))
    spec = ProblemSpec(
        grid=g,
        channels=(
            ChannelSpec(op=identity_op(g), data=rng.random(g.sites), lam=1.0, kind="l2"),
            ChannelSpec(op=radon, data=rng.random(radon.codomain_dim) + 0.1, lam=2.0, kind="kl"),
        ),
        regularizer=reg,
    )
    block = _block(reg)
    k_reg = Counter()

    def apply(*args):
        k_reg["apply"] += 1
        return block.apply(*args)

    monkeypatch.setitem(solver_module._BLOCKS, type(reg), replace(block, apply=apply))
    iters = 13
    result = solve(spec, SolveConfig(max_iters=iters, tol=0.0, diag_every=1))
    assert len(result.diagnostics.energy) == iters
    # the affine check applies each T_i to the d + 1 affine basis images
    check = g.ndim + 1 if block.affine_injective else 0
    assert calls == {"apply": iters + check, "adjoint": iters}
    assert k_reg == {"apply": iters}
