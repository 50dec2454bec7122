from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import coupledrec.coupling as cpl
import coupledrec.diffops as diffops
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
    pointwise_norms,
    pointwise_norms_array,
)
from coupledrec.problem import ChannelSpec, ProblemSpec, Quadratic, TGV2, WaveletL21
from coupledrec.solver import (
    _KINDS,
    SolveConfig,
    SolverError,
    SolverState,
    _balls,
    _block,
    _clamp_kl,
    _data_adjoint,
    _init_state,
    _iterate_shapes,
    _iterates,
    _require_finite,
    block_names,
    block_steps,
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
    # form: u* = 2 lam f/(2 lam + w), r* = 2 lam (u* - f)
    g = Grid((8, 8))
    lam, w = 1.5, 1.0
    f = _smooth(g, 3)[..., 0]
    spec = _quad_problem(g, f, lam=lam, weight=w)
    u_star = (2.0 * lam / (2.0 * lam + w)) * f
    r_star = 2.0 * lam * (u_star - f)
    u = u_star[..., None]
    state = SolverState(u=u, ubar=u, r=[r_star.reshape(-1)], sigma=(0.3,), tau=(0.3,))
    new = pd_step(spec, state)
    assert np.abs(new.u - u).max() < 1e-10


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
    warm = _init_state(spec, SolveConfig(warm_start=True), norms=np.full((2, 1, 1), 2.0))
    np.testing.assert_array_equal(warm.u[..., 0], np.full(g.dims, -0.5))
    np.testing.assert_array_equal(warm.u[..., 1], np.zeros(g.dims))

    u0 = np.full(g.dims + (2,), -1.0)
    steps = {"sigma": (0.1, 0.1), "tau": (0.1, 0.1)}
    new = pd_step(spec, SolverState(u=u0, ubar=u0, r=[np.zeros(16)] * 2, **steps))
    assert np.all(new.u[..., 0] < 0.0)
    np.testing.assert_array_equal(new.u[..., 1], np.zeros(g.dims))


def test_pd_step_extrapolation_identity():
    g = Grid((8, 8))
    spec = _quad_problem(g, _smooth(g, 4)[..., 0])
    u0 = _smooth(g, 5)
    state = SolverState(u=u0, ubar=u0, r=[np.zeros(64)], sigma=(0.4,), tau=(0.4,))
    new = pd_step(spec, state)
    np.testing.assert_array_equal(new.ubar, 2.0 * new.u - u0)


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
    res = solve(spec, SolveConfig(max_iters=100, tol=0.0))
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
    state = res.state
    assert pointwise_norms(VectorField(g, state.p), "frobenius").max() <= 1.0 + 1e-12
    assert pointwise_norms(SymTensorField(g, state.q), "frobenius").max() <= 2.0 + 1e-12
    assert res.u.values.min() >= 0.0
    # KL dual iterates stay strictly below lambda on the data support
    support = spec.channels[0].data > 0
    assert np.all(state.r[0][support] < 3.0)


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
    state = solve(spec, SolveConfig(max_iters=60, tol=0.0)).state
    spectral = np.linalg.svd(state.p, compute_uv=False)[..., 0]
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
    cfg = SolveConfig(max_iters=50, tol=0.0)
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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": np.nan}, "tol"),
        ({"tol": np.inf}, "tol"),
        ({"tol": -1.0}, "tol"),
        ({"max_iters": 0}, "max_iters"),
        ({"max_iters": -3}, "max_iters"),
        ({"diag_every": 0}, "diag_every"),
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


def test_overflow_inside_tgv_block_raises_solver_error():
    # ubar is finite, but its forward differences overflow to +-inf in grad
    g = Grid((12, 12))
    rng = np.random.default_rng(11)
    spec = ProblemSpec(
        grid=g,
        channels=(ChannelSpec(op=identity_op(g), data=rng.random(144), lam=1.0, kind="l2"),),
        regularizer=TGV2(2.0, 1.0),
    )
    state = solve(spec, SolveConfig(max_iters=5, tol=0.0)).state
    rows = np.where(np.arange(12) % 2 == 0, 1.5e308, -1.5e308)
    state.ubar = np.broadcast_to(rows[:, None, None], (12, 12, 1)).copy()
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
        res = solve(spec, SolveConfig(max_iters=iters, tol=0.0))
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


def _mixed_problem(mode, mix):
    grid, reg = SADDLE_MODES[mode]
    kinds = [k if grid.ndim == 2 or k != "radon" else "blur" for k in CHANNEL_MIXES[mix]]
    rng = np.random.default_rng(16)
    channels = []
    for i, kind in enumerate(kinds):
        op = _channel_op(grid, kind)
        data = rng.random(op.codomain_dim) + 0.1
        channels.append(ChannelSpec(op=op, data=data, lam=1.0, kind="kl" if i == 1 else "l2"))
    return ProblemSpec(grid=grid, channels=tuple(channels), regularizer=reg)


def _saddle_operator(problem):
    """K as a flat LinearOp from (u, *primal) to (*duals, r_1, ..., r_N), built
    from the regularizer's table entry and the channel operators.

    A dual variable with inner-product weights w is stored as sqrt(w) times
    its entries, so that the Euclidean dot product is the weighted one.
    """
    reg, h = problem.regularizer, problem.grid.spacing
    block = _block(reg)
    shapes = _iterate_shapes(problem)
    ops = [c.op for c in problem.channels]
    x_shapes = [shapes[name] for name in ("u",) + block.primal]
    y_shapes = [shapes[name] for name in block.dual] + [(op.codomain_dim,) for op in ops]
    roots = [_KINDS[name].weights(len(h)) for name in block.dual]
    roots = [None if w is None else np.sqrt(w) for w in roots]

    def split(flat, shapes):
        ends = np.cumsum([int(np.prod(s)) for s in shapes])
        return [piece.reshape(s) for piece, s in zip(np.split(flat, ends[:-1]), shapes)]

    def apply(x):
        u, *xs = split(x, x_shapes)
        rows = zip(block.apply(reg, h, u, *xs), roots)
        parts = [(k if w is None else k * w).reshape(-1) for k, w in rows]
        return np.concatenate(parts + [op.apply(u[..., i]) for i, op in enumerate(ops)])

    def adjoint(y):
        pieces = split(y, y_shapes)
        duals = [k if w is None else k / w for k, w in zip(pieces, roots)]
        u_part, *x_parts = block.adjoint(reg, h, *duals)
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
    block = _block(problem.regularizer)
    shapes = _iterate_shapes(problem)
    axis, n = problem.grid.ndim, problem.n_channels

    def layout(names, sizes):
        start, out = 0, []
        for name in names:
            shape = shapes[name]
            idx = np.arange(start, start + int(np.prod(shape))).reshape(shape)
            out.append([idx.take(c, axis=axis).reshape(-1) for c in range(n)])
            start += idx.size
        for size in sizes:
            out.append(np.arange(start, start + size))
            start += size
        return out

    row_blocks = layout(block.dual, [c.op.codomain_dim for c in problem.channels])
    col_blocks = layout(("u",) + block.primal, [])
    n_reg = len(block.dual)
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
    shapes = _iterate_shapes(problem)
    rng = np.random.default_rng(17)
    u, *primal = (rng.standard_normal(shapes[name]) for name in ("u",) + block.primal)
    ks = block.apply(reg, h, u, *primal)
    c = 1e8
    pairing = 0.0
    for name, k, ball in zip(block.dual, ks, _balls(reg, h, [c * k for k in ks])):
        sites, radius, coupling, weights = ball
        smallest = nonzero = pointwise_norms_array(sites, weights=weights)
        if coupling == "nuclear":
            smallest = np.linalg.svd(np.swapaxes(sites, -1, -2), compute_uv=False)[..., -1]
        assert np.all(smallest.reshape(-1)[nonzero > 0] > radius)  # nonzero sites lie outside
        w = _KINDS[name].weights(grid.ndim)
        projected = cpl.project_dual_ball_array(*ball).reshape(k.shape)
        pairing += float(np.sum(k * projected * (1.0 if w is None else w)))
    v = VectorField(grid, primal[0]) if block.primal else None
    value = regularizer_value(problem, MultiImage(grid, u), v) - block.value(reg, h, u, *primal)
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
    spec = _identity_pair(Grid((8, 8)), reg)
    block, h = _block(reg), spec.grid.spacing
    dual_names, primal_names = block_names(spec)
    sigma = tuple(0.1 + 0.03 * k for k in range(len(dual_names)))
    tau = tuple(0.2 + 0.05 * k for k in range(len(primal_names)))
    rng = np.random.default_rng(18)
    iterates = {name: rng.random(shape) for name, shape in _iterate_shapes(spec).items()}
    r = [rng.random(c.op.codomain_dim) for c in spec.channels]
    state = SolverState(r=r, sigma=sigma, tau=tau, **iterates)
    new = pd_step(spec, state)

    n_reg, n = len(block.dual), spec.n_channels
    for i, (c, s) in enumerate(zip(spec.channels, sigma[n_reg:])):
        pred = c.op.apply(state.ubar[..., i])
        if c.kind == "l2":
            expected = prox_l2_dual(state.r[i] + s * (pred - c.data), s, c.lam)
        else:
            expected = prox_kl_dual(state.r[i] + s * (pred + c.background), c.data, s, c.lam)
        np.testing.assert_allclose(new.r[i], expected, rtol=1e-14, atol=0)
    k_bar = block.apply(reg, h, state.ubar, *_iterates(state, block.primal, "bar"))
    hats = [y + s * k for y, k, s in zip(_iterates(state, block.dual), k_bar, sigma)]
    duals = [
        cpl.project_dual_ball_array(*ball).reshape(y.shape)
        for y, ball in zip(hats, _balls(reg, h, hats))
    ]
    for name, expected in zip(block.dual, duals):
        np.testing.assert_allclose(getattr(new, name), expected, rtol=1e-14, atol=0)
    u_part, *x_parts = block.adjoint(reg, h, *duals)
    for name, g, t in zip(block.primal, x_parts, tau[n:]):
        np.testing.assert_allclose(getattr(new, name), getattr(state, name) - t * g, rtol=1e-14)
    for i, (c, t) in enumerate(zip(spec.channels, tau[:n])):
        grad = c.op.adjoint(new.r[i]) + (0.0 if u_part is None else u_part[..., i])
        expected = state.u[..., i] - t * grad
        if isinstance(reg, Quadratic):
            expected = expected / (1.0 + t * reg.weight)
        if c.kind == "kl":
            expected = np.maximum(expected, 0.0)
        np.testing.assert_allclose(new.u[..., i], expected, rtol=1e-14, atol=1e-15)


def _reference_norm_estimate(op, iters, seed):
    """The power iteration before its stop rule: always ``iters`` iterations."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.domain_dim)
    nx = np.linalg.norm(x)
    if nx == 0:
        return 0.0
    x /= nx
    est = 0.0
    for _ in range(iters):
        y = op.apply(x)
        ny = np.linalg.norm(y)
        if ny == 0:
            return 0.0
        est = ny
        x = op.adjoint(y)
        nx = np.linalg.norm(x)
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
            ChannelSpec(op=radon, data=rng.random(radon.codomain_dim) + 0.1, lam=2.0, kind="kl"),
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
    """``pd_step`` as it was with one sigma and one tau for all of K, verbatim
    but for the Quadratic prox, which took a scalar tau, and the dual
    projection, which follows today's one ball per dual."""
    reg, h = problem.regularizer, problem.grid.spacing
    block = _block(reg)
    sigma, tau = state.sigma, state.tau

    r_new = []
    for i, c in enumerate(problem.channels):
        pred = c.op.apply(state.ubar[..., i])
        if c.kind == "l2":
            r_new.append(prox_l2_dual(state.r[i] + sigma * (pred - c.data), sigma, c.lam))
        else:
            r_new.append(
                prox_kl_dual(state.r[i] + sigma * (pred + c.background), c.data, sigma, c.lam)
            )
    tstar = _data_adjoint(problem, r_new)

    iteration = state.iteration + 1
    # k_bar and dual_hat are as large as the duals: dropped once used, for peak heap
    k_bar = block.apply(reg, h, state.ubar, *_iterates(state, block.primal, "bar"))
    dual_hat = [y + sigma * k for y, k in zip(_iterates(state, block.dual), k_bar)]
    del k_bar
    duals = {
        name: cpl.project_dual_ball_array(*ball).reshape(y.shape)
        for name, y, ball in zip(block.dual, dual_hat, _balls(reg, h, dual_hat))
    }
    del dual_hat
    u_part, *x_parts = block.adjoint(reg, h, *duals.values())
    primal = {}
    for name, x, g in zip(block.primal, _iterates(state, block.primal), x_parts):
        x_new = x - tau * g
        primal[name], primal[name + "bar"] = x_new, 2.0 * x_new - x
    _require_finite(iteration, **primal)

    if u_part is not None:
        tstar += u_part
    u_new = state.u - tau * tstar
    if block.prox is not None:
        u_new = u_new / (1.0 + tau * reg.weight)
    _clamp_kl(problem, u_new)
    ubar_new = 2.0 * u_new - state.u
    _require_finite(iteration, u=u_new, ubar=ubar_new)
    return replace(state, u=u_new, ubar=ubar_new, r=r_new, iteration=iteration, **duals, **primal)


def _assert_states_equal(a, b):
    for name, x in _state_arrays(a).items():
        y = _state_arrays(b)[name]
        assert (x is None) == (y is None), name
        assert x is None or x.tobytes() == y.tobytes(), name


def test_uniform_steps_match_the_scalar_step_iteration():
    # the rate sweep's shape: identity channels, L2 and KL, under a quadratic penalty
    spec = _identity_pair(Grid((8, 8)), Quadratic(0.05))
    norms = estimate_saddle_norm(spec)
    np.testing.assert_array_equal(norms, np.full((2, 1, 1), 1.01))
    state = _init_state(spec, SolveConfig(), norms)
    step = 0.99 / 1.01
    assert (state.sigma, state.tau) == ((step, step), (step, step))
    scalar = replace(state, sigma=step, tau=step)
    for _ in range(150):
        state, scalar = pd_step(spec, state), _scalar_step_pd_step(spec, scalar)
    _assert_states_equal(state, scalar)
    assert state.iteration == 150


def test_warm_start_divides_each_channel_by_its_own_norm():
    g = Grid((8, 8))
    rng = np.random.default_rng(17)
    radon = radon_op(g, np.arange(6) * np.pi / 6, default_n_bins(g))
    spec = ProblemSpec(
        grid=g,
        channels=(
            ChannelSpec(op=identity_op(g), data=rng.random(g.sites), lam=1.0, kind="l2"),
            ChannelSpec(op=radon, data=rng.random(radon.codomain_dim), lam=1.0, kind="kl"),
        ),
        regularizer=TGV2(2.0, 1.0),
    )
    norms = estimate_saddle_norm(spec)
    warm = _init_state(spec, SolveConfig(warm_start=True), norms)
    for i, c in enumerate(spec.channels):
        expected = c.op.adjoint(c.data) / norms[i, -1, 0]
        np.testing.assert_array_equal(warm.u[..., i], expected)
    assert norms[0, -1, 0] == 1.01  # an identity channel: the scalar-step ||K|| of a sweep


# --- norms shared through the operators ---------------------------------------


def _state_arrays(state):
    names = ("u", "ubar", "v", "vbar", "p", "q", "s")
    return {n: getattr(state, n) for n in names} | {f"r{i}": r for i, r in enumerate(state.r)}


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
@pytest.mark.parametrize("warm_start", [False, True])
def test_solve_with_prepared_setup_is_bitwise_equal(reg, warm_start, monkeypatch):
    # the second solve reuses each operator's norm from the first
    calls = _count_power_iterations(monkeypatch)
    g = Grid((8, 8))
    radon = radon_op(g, np.arange(6) * np.pi / 6, default_n_bins(g))
    rng = np.random.default_rng(19)
    spec = ProblemSpec(
        grid=g,
        channels=(
            ChannelSpec(op=identity_op(g), data=rng.random(g.sites), lam=1.0, kind="l2"),
            ChannelSpec(op=radon, data=rng.random(radon.codomain_dim), lam=2.0, kind="kl"),
        ),
        regularizer=reg,
    )
    cfg = SolveConfig(max_iters=40, tol=0.0, diag_every=7, warm_start=warm_start)
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
    for warm_start in (False, True):  # before the warm start divides by the norm
        with pytest.raises(SolverError, match="zero norm"):
            solve(spec, SolveConfig(max_iters=2, warm_start=warm_start))
