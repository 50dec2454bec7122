"""Per-layer metrics computed from a :class:`tracing.Tracer`, and predictions.

Every metric names the end-to-end metric and workload it should move
(``moves``).  A change that claims a gain on one layer cites this table
instead of re-deriving it; a workload a metric does not mention should show
no change.

Units: ``_us`` is mean inclusive microseconds per call over every traced
call; ``.calls`` is calls made by one set-up plus one operation; ``_s`` and
plain counts are per operation unless the name says otherwise.
"""

from __future__ import annotations

import statistics

import numpy as np

W1 = "joint_tgv_nuclear_64"
W2 = "rates_mixed_kl_64"
W3 = "wavelet_deblur_128"

# (span name, predicted end-to-end effect) for every span reported as
# <name>_us plus <name>.calls.
TIMED_CALLS = [
    ("solver.pd_step", f"wall_s on {W3}; final_energy on {W1} for preconditioning"),
    ("coupling.project_nuclear", f"wall_s on {W1}; none on {W2}, {W3}"),
    ("coupling.project_frobenius", f"wall_s on {W1}; none on {W2}, {W3}"),
    ("coupling.project_sym", f"wall_s on {W1}; none on {W2}, {W3}"),
    ("coupling.haar_forward", f"wall_s on {W3}"),
    ("coupling.haar_inverse", f"wall_s on {W3}"),
    ("coupling.group_ball", f"wall_s on {W3}"),
    ("grids.pointwise_nuclear", f"wall_s on {W1}"),
    ("grids.inner_product", f"wall_s on {W2} most, {W1} and {W3} less"),
    ("diffops.grad", f"wall_s on {W1}"),
    ("diffops.div", f"wall_s on {W1}"),
    ("diffops.sym_grad", f"wall_s on {W1}"),
    ("diffops.sym_div", f"wall_s on {W1}"),
    ("diffops.power_iter", f"wall_s on {W2}"),
    ("forward.radon.apply", f"wall_s on {W1}"),
    ("forward.radon.adjoint", f"wall_s on {W1}"),
    ("forward.masked_fourier.apply", f"wall_s on {W1}"),
    ("forward.masked_fourier.adjoint", f"wall_s on {W1}"),
    ("forward.convolution.apply", f"wall_s on {W3}"),
    ("forward.convolution.adjoint", f"wall_s on {W3}"),
    ("forward.identity.apply", f"wall_s on {W2}"),
    ("forward.identity.adjoint", f"wall_s on {W2}"),
    ("discrepancy.prox_l2_dual", "wall_s on all three"),
    ("discrepancy.prox_kl_dual", "wall_s on all three"),
    ("discrepancy.eval_kl", f"wall_s on all three, {W2} most"),
    ("discrepancy.eval_l2sq", "wall_s on all three"),
    ("discrepancy.noise", f"setup_s on {W1}, {W3}; wall_s on {W2}"),
    ("problem.validate", f"setup_s on all three; wall_s on {W2}"),
]

# Metrics with their own definition: name -> (unit, predicted effect).
OTHER = {
    "solver.iters": ("count", f"wall_s on {W3}, {W2} (stop-rule and preconditioning changes)"),
    "solver.unconverged": ("count", f"correctness: must stay 0 on {W2}, {W3}"),
    "solver.pd_step_self_us": ("us", f"wall_s on {W3}; final_energy on {W1}"),
    "solver.norm_estimate_s": ("s", f"wall_s on {W2}"),
    "solver.norm_estimates": ("count", f"wall_s on {W2}"),
    "solver.affine_check_s": ("s", f"wall_s on {W2}; {W1} only slightly"),
    "solver.diag_s": ("s", f"wall_s on {W1}, {W3}"),
    "solver.diag_share": ("ratio", f"wall_s on {W1}, {W3}"),
    "solver.reg_value_calls_per_iter": ("ratio", f"wall_s on {W1}, {W3} (2 today, 1 useful)"),
    "grids.fields_per_iter": ("count", f"wall_s on {W2} most, {W1} and {W3} less"),
    "forward.radon.build_s": ("s", f"setup_s on {W1}"),
    "rates.solves": ("count", f"wall_s on {W2}"),
    "rates.self_s": ("s", f"wall_s on {W2}"),
    "rates.norm_estimates_per_opset": ("ratio", f"wall_s on {W2} (40 today, 1 useful)"),
    "trace.overhead_s": ("s", "none; traced minus untraced wall_s per operation"),
    "trace.ops": ("count", "none; traced operations behind these figures"),
}

DIAG_SPANS = ("solver.primal_energy", "solver.channel_data_term", "solver.regularizer_value")


def metric_units() -> dict[str, str]:
    units = {}
    for name, _ in TIMED_CALLS:
        units[f"{name}_us"] = "us"
        units[f"{name}.calls"] = "count"
    units.update({name: unit for name, (unit, _) in OTHER.items()})
    return units


def _inside(start, end, outer_start, outer_end) -> np.ndarray:
    """Which spans lie inside one of the outer spans (outer spans never nest)."""
    if outer_start.size == 0:
        return np.zeros(start.shape, dtype=bool)
    k = np.searchsorted(outer_start, start, side="right") - 1
    return (k >= 0) & (end <= outer_end[np.maximum(k, 0)])


def compute(tracer, untraced_wall: list[float], traced_wall: list[float]) -> dict[str, float]:
    """All per-layer metrics from the tracer's spans and counters."""
    a = tracer.arrays()
    n_ops = len(traced_wall)
    dur = a["end"] - a["start"]
    nested = a["parent"] >= 0
    self_time = dur - np.bincount(a["parent"][nested], dur[nested], minlength=dur.size)
    in_op = a["op"] >= 1

    def spans(name):
        code = tracer.codes.get(name, -1)
        return a["name"] == code

    def inside(name):
        outer = spans(name)
        return _inside(a["start"], a["end"], a["start"][outer], a["end"][outer]) & ~outer

    def per_op_total(name, values=dur):
        return float(values[spans(name) & in_op].sum()) / n_ops

    def mean_per_call(name, values=dur):
        sel = spans(name)
        return float(values[sel].mean()) if sel.any() else 0.0

    iters = sum(v for op, v in tracer.iterations.items() if op >= 1)
    out: dict[str, float] = {}
    for name, _ in TIMED_CALLS:
        sel = spans(name)
        out[f"{name}_us"] = 1e6 * mean_per_call(name)
        out[f"{name}.calls"] = int((sel & ~in_op).sum()) + int((sel & in_op).sum()) / n_ops
    solve = spans("solver.solve")
    direct_in_solve = nested & solve[np.maximum(a["parent"], 0)]
    diag = sum(
        float(dur[spans(name) & in_op & direct_in_solve].sum()) for name in DIAG_SPANS
    ) / n_ops
    solve_time = per_op_total("solver.solve")
    estimates = int((spans("solver.norm_estimate") & in_op).sum())
    opsets = {key for key in tracer.opsets if key[0] >= 1}
    out.update(
        {
            "solver.iters": iters / n_ops,
            "solver.unconverged": sum(v for op, v in tracer.unconverged.items() if op >= 1) / n_ops,
            "solver.pd_step_self_us": 1e6 * mean_per_call("solver.pd_step", self_time),
            "solver.norm_estimate_s": per_op_total("solver.norm_estimate"),
            "solver.norm_estimates": estimates / n_ops,
            "solver.affine_check_s": per_op_total("solver.affine_check"),
            "solver.diag_s": diag,
            "solver.diag_share": diag / solve_time if solve_time else 0.0,
            "solver.reg_value_calls_per_iter": (
                int((spans("solver.regularizer_value") & in_op & inside("solver.solve")).sum())
                / iters
                if iters
                else 0.0
            ),
            "grids.fields_per_iter": (
                sum(v for op, v in tracer.fields.items() if op >= 1) / iters if iters else 0.0
            ),
            "forward.radon.build_s": mean_per_call("forward.radon.build"),
            "rates.solves": int((solve & in_op & inside("rates.run_rate_experiment")).sum()) / n_ops,
            "rates.self_s": per_op_total("rates.run_rate_experiment", self_time),
            "rates.norm_estimates_per_opset": estimates / len(opsets) if opsets else 0.0,
            "trace.overhead_s": statistics.median(traced_wall) - statistics.median(untraced_wall),
            "trace.ops": float(n_ops),
        }
    )
    return out
