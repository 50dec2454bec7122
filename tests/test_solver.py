import numpy as np
import pytest

from coupledrec.cli import random_fourier_mask
from coupledrec.diffops import adjoint_check
from coupledrec.forward import ForwardOp, identity_op, masked_fourier_op
from coupledrec.grids import Grid, MultiImage, SymTensorField, VectorField, pointwise_norms
from coupledrec.problem import ChannelSpec, ProblemSpec, Quadratic, TGV2, WaveletL21
from coupledrec.solver import (
    SolveConfig,
    SolverError,
    SolverState,
    _init_state,
    _saddle_operator,
    check_affine_injectivity,
    estimate_saddle_norm,
    load_checkpoint,
    pd_step,
    prepare,
    primal_energy,
    regularizer_value,
    save_checkpoint,
    solve,
    step_policy,
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
    state = SolverState(u=u, ubar=u, r=[r_star.reshape(-1)], sigma=0.3, tau=0.3)
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
    warm = _init_state(spec, SolveConfig(warm_start=True), knorm=2.0)
    np.testing.assert_array_equal(warm.u[..., 0], np.full(g.dims, -0.5))
    np.testing.assert_array_equal(warm.u[..., 1], np.zeros(g.dims))

    u0 = np.full(g.dims + (2,), -1.0)
    new = pd_step(spec, SolverState(u=u0, ubar=u0, r=[np.zeros(16)] * 2, sigma=0.1, tau=0.1))
    assert np.all(new.u[..., 0] < 0.0)
    np.testing.assert_array_equal(new.u[..., 1], np.zeros(g.dims))


def test_pd_step_extrapolation_identity():
    g = Grid((8, 8))
    spec = _quad_problem(g, _smooth(g, 4)[..., 0])
    u0 = _smooth(g, 5)
    state = SolverState(u=u0, ubar=u0, r=[np.zeros(64)], sigma=0.4, tau=0.4)
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
    with pytest.raises(SolverError):
        prepare(spec)
    with pytest.raises(SolverError):
        solve(spec, SolveConfig(max_iters=5))


def test_step_policy_constant_and_dead_zone():
    state = SolverState(u=np.zeros((2, 2, 1)), ubar=np.zeros((2, 2, 1)), r=[], sigma=0.2, tau=0.3)
    assert step_policy("constant", state, 1.0, 100.0, 0.5) == (0.2, 0.3)
    # balanced residuals: adaptive leaves steps alone
    assert step_policy("adaptive", state, 1.0, 5.0, 0.5) == (0.2, 0.3)
    with pytest.raises(ValueError):
        step_policy("bogus", state, 1.0, 1.0, 0.5)


def test_step_policy_adaptive_cap_invariant():
    rng = np.random.default_rng(10)
    cap = 0.1
    state = SolverState(u=np.zeros((2, 2, 1)), ubar=np.zeros((2, 2, 1)), r=[], sigma=cap, tau=cap)
    for _ in range(1000):
        pres, dres = rng.uniform(1e-8, 1e3, 2)
        sigma, tau = step_policy("adaptive", state, pres, dres, cap)
        assert sigma * tau <= cap**2 * (1.0 + 1e-12)
        assert sigma > 0 and tau > 0
        state.sigma, state.tau = sigma, tau


def test_checkpoint_roundtrip_and_bitwise_resume(tmp_path):
    g = Grid((12, 12))
    rng = np.random.default_rng(11)
    spec = ProblemSpec(
        grid=g,
        channels=(ChannelSpec(op=identity_op(g), data=rng.random(144), lam=1.0, kind="l2"),),
        regularizer=TGV2(2.0, 1.0),
    )
    res = solve(spec, SolveConfig(max_iters=30, tol=0.0))
    path = tmp_path / "state.crck"
    save_checkpoint(path, res.state)
    loaded = load_checkpoint(path, spec)
    np.testing.assert_array_equal(loaded.u, res.state.u)
    np.testing.assert_array_equal(loaded.p, res.state.p)
    np.testing.assert_array_equal(loaded.q, res.state.q)
    np.testing.assert_array_equal(loaded.r[0], res.state.r[0])
    assert loaded.sigma == res.state.sigma
    assert loaded.iteration == res.state.iteration
    # stepping the restored state reproduces the original continuation bitwise
    cont_orig = pd_step(spec, res.state)
    cont_load = pd_step(spec, loaded)
    np.testing.assert_array_equal(cont_orig.u, cont_load.u)
    np.testing.assert_array_equal(cont_orig.r[0], cont_load.r[0])


def test_checkpoint_fields_follow_the_regularizer(tmp_path):
    g = Grid((8, 8))
    f = _smooth(g, 13).reshape(-1)
    channels = (ChannelSpec(op=identity_op(g), data=f, lam=5.0, kind="l2"),)
    spec = ProblemSpec(grid=g, channels=channels, regularizer=WaveletL21(levels=2))
    res = solve(spec, SolveConfig(max_iters=20, tol=0.0))
    path = tmp_path / "wavelet.crck"
    save_checkpoint(path, res.state)
    loaded = load_checkpoint(path, spec)
    np.testing.assert_array_equal(pd_step(spec, loaded).s, pd_step(spec, res.state).s)
    with pytest.raises(ValueError, match="do not match"):
        load_checkpoint(path, ProblemSpec(grid=g, channels=channels, regularizer=TGV2(2.0, 1.0)))


def _fourier_problem(grid, fraction):
    op = masked_fourier_op(grid, random_fourier_mask(grid.dims, fraction, seed=4))
    channel = ChannelSpec(op=op, data=op.apply(_smooth(grid, 5)[..., 0]), lam=1.0)
    return ProblemSpec(grid=grid, channels=(channel,), regularizer=Quadratic(0.5))


def test_checkpoint_validates_residual_duals(tmp_path):
    g = Grid((8, 8))
    spec = _fourier_problem(g, 0.5)
    state = solve(spec, SolveConfig(max_iters=5, tol=0.0)).state
    path = tmp_path / "fourier.crck"
    save_checkpoint(path, state)
    assert load_checkpoint(path, spec).r[0].size == spec.channels[0].op.codomain_dim
    other = _fourier_problem(g, 0.25)
    assert other.channels[0].op.codomain_dim != spec.channels[0].op.codomain_dim
    with pytest.raises(ValueError, match=r"r\[0\]"):
        load_checkpoint(path, other)
    state.r[0][3] = np.nan
    save_checkpoint(path, state)
    with pytest.raises(ValueError, match=r"r\[0\]"):
        load_checkpoint(path, spec)
    state.r[0][3] = 0.0
    state.sigma = np.inf
    save_checkpoint(path, state)
    with pytest.raises(ValueError, match="sigma"):
        load_checkpoint(path, spec)


def test_unknown_step_policy_rejected():
    with pytest.raises(ValueError, match="step policy"):
        SolveConfig(step_policy="adaptve")
    assert SolveConfig(step_policy="adaptive").step_policy == "adaptive"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": np.nan}, "tol"),
        ({"tol": np.inf}, "tol"),
        ({"tol": -1.0}, "tol"),
        ({"max_iters": 0}, "max_iters"),
        ({"max_iters": -3}, "max_iters"),
        ({"diag_every": 0}, "diag_every"),
    ],
)
def test_solve_config_rejects_bad_numbers(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SolveConfig(**kwargs)
    assert SolveConfig(tol=0.0, max_iters=1, diag_every=1).tol == 0.0


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "x.crck"
    p.write_bytes(b"JUNKJUNKJUNK")
    g = Grid((4, 4))
    spec = _quad_problem(g, np.ones(16))
    with pytest.raises(ValueError):
        load_checkpoint(p, spec)


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


@pytest.mark.parametrize("mode", sorted(SADDLE_MODES))
def test_saddle_operator_adjoint_and_norm(mode):
    grid, reg = SADDLE_MODES[mode]
    spec = _identity_pair(grid, reg)
    op = _saddle_operator(spec)
    assert adjoint_check(op) < 1e-12
    dense = np.stack([op.apply(e) for e in np.eye(op.domain_dim)], axis=1)
    top = np.linalg.svd(dense, compute_uv=False)[0]
    # the solver's 100 power iterations; on the 3-D grid the two largest
    # singular values lie too close together for them to reach 1e-8
    if grid.ndim == 2:
        assert estimate_saddle_norm(spec) / 1.01 == pytest.approx(top, abs=1e-8)


# --- prepare / setup= ----------------------------------------------------------


def _state_arrays(state):
    names = ("u", "ubar", "v", "vbar", "p", "q", "s")
    return {n: getattr(state, n) for n in names} | {f"r{i}": r for i, r in enumerate(state.r)}


@pytest.mark.parametrize(
    "reg", [TGV2(2.0, 1.0, "nuclear"), WaveletL21(levels=2), Quadratic(1.0)], ids=str
)
@pytest.mark.parametrize("warm_start", [False, True])
def test_solve_with_prepared_setup_is_bitwise_equal(reg, warm_start):
    spec = _identity_pair(Grid((8, 8)), reg)
    cfg = SolveConfig(max_iters=40, tol=0.0, diag_every=7, warm_start=warm_start)
    setup = prepare(spec)
    plain, shared = solve(spec, cfg), solve(spec, cfg, setup=setup)
    assert shared.knorm == plain.knorm == setup.knorm
    a, b = _state_arrays(plain.state), _state_arrays(shared.state)
    for name in a:
        if a[name] is None:
            assert b[name] is None, name
        else:
            assert a[name].tobytes() == b[name].tobytes(), name
    assert (plain.state.sigma, plain.state.tau) == (shared.state.sigma, shared.state.tau)
    assert plain.diagnostics.energy == shared.diagnostics.energy
    assert plain.diagnostics.rel_change == shared.diagnostics.rel_change


def test_solve_rejects_a_setup_prepared_for_another_problem():
    g = Grid((6, 6))
    spec = _identity_pair(g, TGV2(2.0, 1.0, "nuclear"))
    setup = prepare(spec)
    cfg = SolveConfig(max_iters=2)
    others = {
        "operators": _identity_pair(g, spec.regularizer),  # equal, but new op objects
        "grid": _identity_pair(Grid((6, 7)), spec.regularizer),
        "regularizer": ProblemSpec(
            grid=g, channels=spec.channels, regularizer=TGV2(2.0, 1.0, "frobenius")
        ),
    }
    for what, other in others.items():
        with pytest.raises(ValueError, match=what):
            solve(other, cfg, setup=setup)
    # data and weights are not part of the match
    moved = ProblemSpec(
        grid=g,
        channels=tuple(
            ChannelSpec(op=c.op, data=2.0 * c.data, lam=3.0 * c.lam, kind=c.kind)
            for c in spec.channels
        ),
        regularizer=spec.regularizer,
    )
    assert solve(moved, cfg, setup=setup).knorm == setup.knorm


def test_prepare_rejects_a_zero_saddle_operator():
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
        prepare(spec)
