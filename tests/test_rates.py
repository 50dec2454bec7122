from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import coupledrec.diffops as diffops
import coupledrec.rates as rates
import coupledrec.solver as solver
from coupledrec.diffops import grad, sym_grad
from coupledrec.forward import identity_op
from coupledrec.grids import Grid, MultiImage, VectorField, pointwise_norms
from coupledrec.problem import TGV2, Quadratic
from coupledrec.rates import (
    LAMBDA_SENTINEL,
    RateChannel,
    RateExperiment,
    RateRule,
    bregman_quadratic,
    choose_lambdas,
    discrepancy_exponents,
    fit_loglog_slope,
    geometric_deltas,
    phantom,
    run_rate_experiment,
)
from coupledrec.solver import SolveConfig, solve


# --- phantoms -----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["affine_blocks", "shared_edges_disc", "smooth_bump"])
@pytest.mark.parametrize("dims", [(16,), (16, 16), (8, 8, 8)])
def test_phantoms_normalized(kind, dims):
    img = phantom(kind, Grid(dims), 2)
    assert img.values.min() >= 0.0
    assert img.values.max() == pytest.approx(1.0)


def test_phantom_deterministic():
    g = Grid((12, 12))
    np.testing.assert_array_equal(
        phantom("shared_edges_disc", g, 3).values, phantom("shared_edges_disc", g, 3).values
    )


def test_affine_blocks_has_zero_tgv_energy():
    g = Grid((8, 8))
    u = phantom("affine_blocks", g, 1)
    v = grad(u)
    energy = pointwise_norms(VectorField(g, grad(u).values - v.values)).sum() + pointwise_norms(
        sym_grad(v)
    ).sum()
    assert energy < 1e-12


def test_shared_edges_disc_identical_supports():
    g = Grid((32, 32))
    img = phantom("shared_edges_disc", g, 3)
    ref = img.channel(0) > 0
    for i in (1, 2):
        np.testing.assert_array_equal(img.channel(i) > 0, ref)


def test_smooth_bump_strictly_positive():
    img = phantom("smooth_bump", Grid((16, 16)), 2)
    assert img.values.min() > 0.0


def test_phantom_rejects_unknown_kind():
    with pytest.raises(ValueError):
        phantom("checkerboard", Grid((8, 8)), 1)


def test_phantom_that_misses_every_site_names_its_kind_and_grid():
    # the length-1 axis puts every site at distance >= 0.5 from the disc's centre
    with pytest.raises(ValueError, match=r"'shared_edges_disc'.*\(1, 32\)"):
        phantom("shared_edges_disc", Grid((1, 32)), 2)


# --- parameter rules ----------------------------------------------------------


def test_rule_validation():
    with pytest.raises(ValueError):
        RateRule(kind="two_norm", mu=(2.0, 3.0))  # needs some mu == 1
    with pytest.raises(ValueError):
        RateRule(kind="general", mu=(1.0, 2.0))  # missing nu
    with pytest.raises(ValueError):
        RateRule(kind="two_norm", mu=(0.5, 1.0))
    with pytest.raises(ValueError):
        RateRule(kind="median", mu=(1.0,))
    for kind, mu in [
        ("mixed_nkl", (1.0, np.nan)),
        ("mixed_nkl", (1.0, np.inf)),
        ("two_norm", (np.nan, 1.0)),
        ("two_norm", (1.0, np.inf)),
    ]:
        with pytest.raises(ValueError, match="finite"):
            RateRule(kind=kind, mu=mu)


def test_two_norm_rule_example():
    rule = RateRule(kind="two_norm", mu=(1.0,))
    lams = choose_lambdas(rule, [0.1], ["l2"])
    assert lams[0] == pytest.approx(10.0)


def test_two_norm_scale_covariance():
    rule = RateRule(kind="two_norm", mu=(1.0, 2.0))
    base = choose_lambdas(rule, [0.2, 0.2], ["l2", "l2"])
    halved = choose_lambdas(rule, [0.1, 0.1], ["l2", "l2"])
    np.testing.assert_allclose(
        halved / base, [2.0 ** (2 - 1 / 1), 2.0 ** (2 - 1 / 2)], rtol=1e-12
    )


def test_general_rule_hand_computed():
    # mu = (1, 2), nu = (1/2, 1/2): eta = (1/2, 1), eta_min = 1/2,
    # eps = (1/2, 1/4), lambda = (d1^-1/2, d2^-3/4)
    rule = RateRule(kind="general", mu=(1.0, 2.0), nu=(0.5, 0.5))
    d1, d2 = 0.04, 0.09
    lams = choose_lambdas(rule, [d1, d2], ["l2", "l2"])
    np.testing.assert_allclose(lams, [d1 ** -0.5, d2 ** -0.75], rtol=1e-12)


def test_mixed_rule_hand_computed():
    # L_nr = {1}, L_kl = {2}, mu = (1,2): mu_bar = 1, eps = (1, 1/2),
    # lambda = (d1^-1, d2^-1/2)
    rule = RateRule(kind="mixed_nkl", mu=(1.0, 2.0))
    d1, d2 = 0.2, 0.05
    lams = choose_lambdas(rule, [d1, d2], ["l2", "kl"])
    np.testing.assert_allclose(lams, [1.0 / d1, d2 ** -0.5], rtol=1e-12)


def test_mixed_rule_halves_the_kl_exponents_pool():
    # mu = (2, 2): the KL channel's pool mu_2 / 2 = 1 lies below the L2 channel's
    # mu_1 = 2, so mu_bar = 1, eps = (1/2, 1/2), lambda = (d1^-3/2, d2^-1/2)
    rule = RateRule(kind="mixed_nkl", mu=(2.0, 2.0))
    d1, d2 = 0.2, 0.05
    lams = choose_lambdas(rule, [d1, d2], ["l2", "kl"])
    np.testing.assert_allclose(lams, [d1**-1.5, d2**-0.5], rtol=1e-12)


def test_zero_delta_gives_infinite_sentinel():
    rule = RateRule(kind="two_norm", mu=(1.0, 2.0))
    lams = choose_lambdas(rule, [0.0, 0.1], ["l2", "l2"])
    assert np.isinf(lams[0]) and np.isfinite(lams[1])


def test_lambda_premise_vanishes_symbolically():
    # lambda_i * delta_i^{p_i} -> 0 along a decreasing noise sequence for
    # all three rules; p = 2 for squared-norm channels, 1 for KL
    kinds = ["l2", "kl"]
    p = discrepancy_exponents(kinds)
    assert p == [2.0, 1.0]
    rules = [
        RateRule(kind="two_norm", mu=(1.0, 2.0)),
        RateRule(kind="mixed_nkl", mu=(1.0, 2.0)),
        RateRule(kind="general", mu=(1.0, 2.0), nu=(1.0, 0.5)),
    ]
    deltas = geometric_deltas(0.1, 0.5, 10)
    for rule in rules:
        use_kinds = kinds if rule.kind != "two_norm" else ["l2", "l2"]
        use_p = discrepancy_exponents(use_kinds)
        prods = []
        for d in deltas:
            lams = choose_lambdas(rule, [d, d**2], use_kinds)
            prods.append([lams[i] * ([d, d**2][i]) ** use_p[i] for i in range(2)])
        prods = np.array(prods)
        assert np.all(np.diff(prods, axis=0) < 0)
        assert np.all(prods[-1] < prods[0] * 0.05)


def test_choose_lambdas_input_validation():
    rule = RateRule(kind="two_norm", mu=(1.0,))
    with pytest.raises(ValueError):
        choose_lambdas(rule, [0.1, 0.2], ["l2", "l2"])
    with pytest.raises(ValueError):
        choose_lambdas(rule, [-0.1], ["l2"])


# --- Bregman distance and slope fitting ---------------------------------------


def test_bregman_quadratic_values():
    g = Grid((2, 2))
    u = MultiImage(g, np.ones((2, 2, 1)))
    assert bregman_quadratic(u, u, 3.0) == 0.0
    zero = MultiImage.zeros(g, 1)
    assert bregman_quadratic(u, zero, 1.0) == pytest.approx(2.0)


def test_bregman_matches_three_term_definition():
    g = Grid((4, 4))
    rng = np.random.default_rng(0)
    u = MultiImage(g, rng.standard_normal((4, 4, 2)))
    ref = MultiImage(g, rng.standard_normal((4, 4, 2)))
    w = 1.7

    def r_of(x):
        return 0.5 * w * float(np.sum(x.values**2))

    xi = w * ref.values
    direct = r_of(u) - r_of(ref) - float(np.sum(xi * (u.values - ref.values)))
    assert bregman_quadratic(u, ref, w) == pytest.approx(direct, abs=1e-12)


def test_fit_loglog_exact_power_laws():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    slope, _, r2 = fit_loglog_slope(xs, xs**2)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)
    slope, _, _ = fit_loglog_slope(xs, 3.7 * xs)
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_fit_loglog_three_point_hand_check():
    xs = np.array([1.0, 10.0, 100.0])
    ys = np.array([2.0, 20.0, 200.0])
    slope, intercept, r2 = fit_loglog_slope(xs, ys)
    assert slope == pytest.approx((np.log(200.0) - np.log(2.0)) / (np.log(100.0)), abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_fit_loglog_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])


# --- experiment harness -------------------------------------------------------


def test_zero_noise_recovers_truth():
    g = Grid((16, 16))
    truth = phantom("smooth_bump", g, 1)
    f = identity_op(g).apply(truth.channel(0))
    # the sentinel weight stands in for the zero-noise hard constraint
    from coupledrec.problem import ChannelSpec, ProblemSpec
    from coupledrec.solver import solve

    spec = ProblemSpec(
        grid=g,
        channels=(
            ChannelSpec(op=identity_op(g), data=f, lam=LAMBDA_SENTINEL, kind="l2"),
        ),
        regularizer=Quadratic(0.05),
    )
    res = solve(spec, SolveConfig(max_iters=3000, tol=1e-13))
    rel = np.linalg.norm(res.u.values.reshape(-1) - f) / np.linalg.norm(f)
    assert rel < 1e-4


def test_rate_experiment_validation():
    g = Grid((8, 8))
    truth = phantom("smooth_bump", g, 1)
    with pytest.raises(ValueError):
        RateExperiment(
            grid=g, u_true=truth,
            channels=[RateChannel(op=identity_op(g), kind="l2")],
            rule=RateRule(kind="two_norm", mu=(1.0,)),
            deltas=(0.1, 0.2, 0.05, 0.02, 0.01),  # not decreasing
        )
    with pytest.raises(ValueError):
        RateExperiment(
            grid=g, u_true=truth,
            channels=[RateChannel(op=identity_op(g), kind="l2")],
            rule=RateRule(kind="two_norm", mu=(1.0, 2.0)),  # channel count mismatch
            deltas=geometric_deltas(levels=5),
        )
    with pytest.raises(ValueError, match="at least one seed"):
        RateExperiment(
            grid=g, u_true=truth,
            channels=[RateChannel(op=identity_op(g), kind="l2")],
            rule=RateRule(kind="two_norm", mu=(1.0,)),
            deltas=geometric_deltas(levels=5),
            seeds=(),
        )


def test_rate_experiment_table_structure():
    g = Grid((8, 8))
    truth = phantom("smooth_bump", g, 1)
    exp = RateExperiment(
        grid=g, u_true=truth,
        channels=[RateChannel(op=identity_op(g), kind="l2")],
        rule=RateRule(kind="two_norm", mu=(1.0,)),
        deltas=geometric_deltas(levels=5),
        seeds=(0, 1),
        regularizer=Quadratic(0.05),
        solve_cfg=SolveConfig(max_iters=1500, tol=1e-11),
    )
    table = run_rate_experiment(exp)
    assert len(table.rows) == 5 * 2
    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "level,seed,delta,delta_1,lambda_1,data_1,R,bregman,iterations,converged"
    assert len(lines) == len(table.rows) + 1
    # one line per solve, in sweep order, each value the row's own
    for line, row in zip(lines[1:], table.rows):
        level, seed, delta, _, _, data, _, _, iters, converged = line.split(",")
        assert (int(level), int(seed), int(iters)) == (row.level, row.seed, row.iterations)
        assert bool(int(converged)) is row.converged
        assert (delta, data) == (format(row.delta, ".12g"), format(row.data_terms[0], ".12g"))
    # repeatability: the whole table is deterministic
    assert run_rate_experiment(exp).to_csv() == csv


def _small_sweep(regularizer):
    g = Grid((8, 8))
    return RateExperiment(
        grid=g,
        u_true=phantom("smooth_bump", g, 2),
        channels=[
            RateChannel(op=identity_op(g), kind="l2"),
            RateChannel(op=identity_op(g), kind="kl"),
        ],
        rule=RateRule(kind="mixed_nkl", mu=(1.0, 2.0)),
        deltas=geometric_deltas(levels=5),
        seeds=(0, 1),
        regularizer=regularizer,
        solve_cfg=SolveConfig(max_iters=100, tol=1e-10, diag_every=2),
    )


SWEEP_REGULARIZERS = {"tgv": TGV2(2.0, 1.0, "nuclear"), "quadratic": Quadratic(0.05)}


@pytest.mark.parametrize("name", sorted(SWEEP_REGULARIZERS))
def test_sweep_prepares_k_once_and_matches_unshared_solves(name, monkeypatch):
    exp = _small_sweep(SWEEP_REGULARIZERS[name])
    calls = Counter()
    for owner, fn in ((diffops, "op_norm_estimate"), (solver, "check_affine_injectivity")):
        original = getattr(owner, fn)

        def counted(*args, _fn=fn, _original=original, **kwargs):
            calls[_fn] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, fn, counted)
    table = run_rate_experiment(exp)
    n_ops = len(exp.channels)
    assert calls["op_norm_estimate"] == n_ops  # one power iteration per operator
    assert calls["check_affine_injectivity"] == (len(table.rows) if name == "tgv" else 0)

    # reference: each solve gets fresh operators, so it estimates their norms
    # anew, and records diagnostics at the caller's stride
    seen = []

    def unshared(spec, cfg):
        seen.append(cfg.diag_every)
        fresh = tuple(replace(c, op=replace(c.op)) for c in spec.channels)
        return solve(
            replace(spec, channels=fresh), replace(cfg, diag_every=exp.solve_cfg.diag_every)
        )

    monkeypatch.setattr(rates, "solve", unshared)
    reference = run_rate_experiment(exp)
    assert seen == [0] * len(table.rows)
    assert calls["op_norm_estimate"] == n_ops * (1 + len(table.rows))
    assert reference == table
    assert reference.to_csv() == table.to_csv()


def test_rate_rows_record_each_solves_iterations_and_convergence():
    exp = _small_sweep(Quadratic(0.05))
    exp.solve_cfg = SolveConfig(max_iters=12, tol=1e-10)
    capped = run_rate_experiment(exp)
    assert all(r.iterations == 12 and not r.converged for r in capped.rows)
    exp.solve_cfg = SolveConfig(max_iters=2000, tol=1e-10)
    rows = run_rate_experiment(exp).rows
    assert all(r.converged and 12 < r.iterations < 2000 for r in rows)
    assert len({r.iterations for r in rows}) > 1
