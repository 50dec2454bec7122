"""The benchmark's tracer must keep finding, and restoring, the names it rebinds."""

import sys
from pathlib import Path

import coupledrec.rates as rates
import coupledrec.solver as solver

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402

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
