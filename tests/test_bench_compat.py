"""The benchmark's tracer must keep finding, and restoring, the names it rebinds."""

import sys
from pathlib import Path

import numpy as np
import pytest

import coupledrec.rates as rates
import coupledrec.solver as solver
from coupledrec.cli import random_fourier_mask
from coupledrec.forward import identity_op, masked_fourier_op
from coupledrec.grids import Grid, MultiImage, SymTensorField, VectorField
from coupledrec.problem import TGV2, ChannelSpec, ProblemSpec, WaveletL21

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

REBOUND = {
    solver: (
        "grad",
        "div",
        "sym_grad",
        "sym_div",
        "pointwise_norms",
        "inner_product",
        "op_norm_estimate",
        "prox_l2_dual",
        "prox_kl_dual",
        "eval_l2sq",
        "eval_kl",
        "estimate_saddle_norm",
        "check_affine_injectivity",
    ),
    rates: (
        "solve",
        "channel_data_term",
        "regularizer_value",
        "inner_product",
        "add_gaussian_noise",
        "add_poisson_noise",
        "run_rate_experiment",
    ),
}


def test_tracer_rebinds_and_restores_every_name():
    before = {(m, name): getattr(m, name) for m, names in REBOUND.items() for name in names}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (m, name), original in before.items():
            assert getattr(m, name) is not original, f"{m.__name__}.{name} was not rebound"
    finally:
        tracer.uninstall()
    for (m, name), original in before.items():
        assert getattr(m, name) is original, f"{m.__name__}.{name} was not restored"


def test_tracer_counts_every_field_kind():
    kinds = (MultiImage, VectorField, SymTensorField)
    g = Grid((4, 4))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for kind in kinds:
            kind.zeros(g, 2)
        assert tracer.fields[tracer.op] == 3
    finally:
        tracer.uninstall()
    for kind in kinds:
        vals = kind.zeros(g, 2).values.copy()
        vals[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            kind(g, vals)


def test_traced_sweep_estimates_the_norm_once():
    g = Grid((8, 8))
    exp = rates.RateExperiment(
        grid=g,
        u_true=rates.phantom("smooth_bump", g, 1),
        channels=[rates.RateChannel(op=identity_op(g), kind="l2")],
        rule=rates.RateRule(kind="two_norm", mu=(1.0,)),
        deltas=rates.geometric_deltas(levels=5),
        seeds=(0, 1),
        regularizer=TGV2(2.0, 1.0),
        solve_cfg=solver.SolveConfig(max_iters=20, tol=0.0),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rates.run_rate_experiment(exp)
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    names = spans["names"][spans["name"]].tolist()
    # one power iteration for the sweep's one operator; the cheap checks run per solve
    assert names.count("diffops.power_iter") == 1
    assert names.count("solver.norm_estimate") == 5 * 2
    assert names.count("solver.affine_check") == 5 * 2
    assert names.count("solver.solve") == 5 * 2
    assert len(tracer.opsets) == 1



def _fourier_identity(regularizer, channels=2):
    g = Grid((8, 8))
    rng = np.random.default_rng(21)
    fourier = masked_fourier_op(g, random_fourier_mask(g.dims, 0.5, seed=3))
    data = rng.standard_normal(fourier.codomain_dim)
    pair = (
        ChannelSpec(op=fourier, data=data, lam=5.0, kind="l2"),
        ChannelSpec(op=identity_op(g), data=rng.random(g.sites) + 0.1, lam=2.0, kind="kl"),
    )
    return ProblemSpec(grid=g, channels=pair[:channels], regularizer=regularizer)


def test_benchmark_energies_agree_with_the_solver():
    # The benchmark's final_energy is evaluated from the public fields and
    # operators, apart from the solver, so a layout slip in a field function
    # would move it; at a short solve's result it must be the solver's objective.
    cfg = solver.SolveConfig(max_iters=30, tol=0.0)
    spec = _fourier_identity(WaveletL21(levels=2))
    res = solver.solve(spec, cfg)
    terms = [c.lam * solver.channel_data_term(spec, res.u, i) for i, c in enumerate(spec.channels)]
    assert workloads._data_energy(spec, res.u) == pytest.approx(sum(terms), rel=1e-12)
    expected = solver.primal_energy(spec, res.u)
    assert workloads._wavelet_energy(spec, res.u) == pytest.approx(expected, rel=1e-12)

    # _nuclear_tgv_energy sums the second-order term channel by channel, which
    # equals the solver's channel-coupled Frobenius term only for one channel
    # or where E v = 0: check it at one channel, and at two with v = 0
    spec = _fourier_identity(TGV2(2.0, 1.0, "nuclear"), channels=1)
    res = solver.solve(spec, cfg)
    expected = solver.primal_energy(spec, res.u, res.v)
    assert workloads._nuclear_tgv_energy(spec, res.u, res.v) == pytest.approx(expected, rel=1e-12)
    spec = _fourier_identity(TGV2(2.0, 1.0, "nuclear"))
    res = solver.solve(spec, cfg)
    v = VectorField.zeros(spec.grid, 2)
    expected = solver.primal_energy(spec, res.u, v)
    assert workloads._nuclear_tgv_energy(spec, res.u, v) == pytest.approx(expected, rel=1e-12)
