"""Phantoms, parameter-choice rules, and empirical convergence-rate sweeps.

The parameter rules map realized per-channel noise levels to regularization
weights; the sweep runs the solver over a decreasing noise sequence and fits
log-log slopes of the recorded metrics, which is how the rate predictions
are verified numerically.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from .discrepancy import (
    add_gaussian_noise,
    add_poisson_noise,
    poisson_scale_for_delta,
)
from .forward import ForwardOp
from .grids import Grid, MultiImage, inner_product
from .problem import ChannelSpec, ProblemSpec, Quadratic, Regularizer
from .solver import SolveConfig, channel_data_term, regularizer_value, solve

LAMBDA_SENTINEL = 1e8  # stands in for lambda = infinity on exact-data channels

PHANTOM_KINDS = ("affine_blocks", "shared_edges_disc", "smooth_bump")


def _unit_coords(grid: Grid) -> list[np.ndarray]:
    axes = [np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1) for n in grid.dims]
    return list(np.meshgrid(*axes, indexing="ij"))


def phantom(kind: str, grid: Grid, channels: int) -> MultiImage:
    """Deterministic nonnegative test images, max value 1."""
    if channels < 1:
        raise ValueError("channels must be >= 1")
    coords = _unit_coords(grid)
    vals = np.zeros(grid.dims + (channels,))
    if kind == "affine_blocks":
        ramp = 0.2 + 0.5 * coords[0] + (0.3 * coords[1] if len(coords) > 1 else 0.0)
        for i in range(channels):
            vals[..., i] = ramp * (0.5 + 0.5 * (i + 1) / channels)
    elif kind == "shared_edges_disc":
        center = [0.5] * grid.ndim
        r2 = sum((c - m) ** 2 for c, m in zip(coords, center))
        outer = r2 <= 0.35**2
        inner = sum((c - m - 0.08) ** 2 for c, m in zip(coords, center)) <= 0.15**2
        for i in range(channels):
            level = (i + 1) / channels
            vals[..., i][outer] = 0.5 * level
            vals[..., i][inner & outer] = 1.0 * level
    elif kind == "smooth_bump":
        center = [0.5] * grid.ndim
        r2 = sum((c - m) ** 2 for c, m in zip(coords, center))
        for i in range(channels):
            width = 0.12 + 0.06 * i / max(channels - 1, 1)
            vals[..., i] = 0.1 + 0.9 * np.exp(-r2 / (2.0 * width**2))
    else:
        raise ValueError(f"unknown phantom kind {kind!r}")
    vals /= vals.max()
    return MultiImage(grid, vals)


@dataclass(frozen=True)
class RateRule:
    """Parameter-choice rule mapping noise levels to lambda weights."""

    kind: str  # "two_norm" | "mixed_nkl" | "general"
    mu: tuple[float, ...]
    nu: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("two_norm", "mixed_nkl", "general"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if any(not 1 <= m < np.inf for m in self.mu):
            raise ValueError(f"exponents mu must be finite and >= 1, got {self.mu!r}")
        if self.kind == "two_norm" and min(self.mu) != 1:
            raise ValueError("two_norm rule needs min(mu) == 1")
        if self.kind == "general":
            if self.nu is None or len(self.nu) != len(self.mu):
                raise ValueError("general rule needs one nu per channel")
            if any(not 0 < n <= 1 for n in self.nu):
                raise ValueError("nu must lie in (0, 1]")


def choose_lambdas(rule: RateRule, deltas, kinds) -> np.ndarray:
    """Evaluate the rule (proportionality constant 1).

    A zero noise level yields an infinite sentinel: that channel acts as a
    hard constraint.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    kinds = list(kinds)
    if deltas.size != len(rule.mu) or len(kinds) != deltas.size:
        raise ValueError("deltas/kinds length must match the rule's channel count")
    if np.any(deltas < 0):
        raise ValueError("noise levels must be >= 0")
    out = np.empty(deltas.size)
    if rule.kind == "two_norm":
        expo = [-(2.0 - 1.0 / m) for m in rule.mu]
    elif rule.kind == "mixed_nkl":
        pools = [m if k == "l2" else m / 2.0 for m, k in zip(rule.mu, kinds)]
        mu_bar = min(pools)
        eps = [mu_bar / m for m in rule.mu]
        expo = [
            -((2.0 if k == "l2" else 1.0) - e) for e, k in zip(eps, kinds)
        ]
    else:
        eta = [m * n for m, n in zip(rule.mu, rule.nu)]
        eta_min = min(eta)
        eps = [eta_min / m for m in rule.mu]
        expo = [-(1.0 - e) for e in eps]
    for i, (d, e) in enumerate(zip(deltas, expo)):
        out[i] = np.inf if d == 0 else d**e
    return out


def discrepancy_exponents(kinds) -> list[float]:
    """The p_i powers entering the vanishing-premise lambda*delta^p -> 0."""
    return [2.0 if k == "l2" else 1.0 for k in kinds]


def bregman_quadratic(u: MultiImage, u_ref: MultiImage, weight: float) -> float:
    """Bregman distance of the quadratic regularizer at its exact subgradient."""
    diff = MultiImage(u.grid, u.values - u_ref.values)
    return 0.5 * weight * inner_product(diff, diff)


def fit_loglog_slope(xs, ys) -> tuple[float, float, float]:
    """Least-squares slope/intercept/r^2 of log(ys) against log(xs)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size != ys.size or xs.size < 3:
        raise ValueError("need at least 3 paired points")
    if not (np.all((xs > 0) & (xs < np.inf)) and np.all((ys > 0) & (ys < np.inf))):
        raise ValueError(
            f"log-log fit needs positive finite values, got xs={xs.tolist()}, ys={ys.tolist()}"
        )
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class RateChannel:
    """Template for one channel of a rate sweep."""

    op: ForwardOp
    kind: str  # "l2" (Gaussian noise) | "kl" (Poisson noise)


@dataclass
class RateExperiment:
    grid: Grid
    u_true: MultiImage
    channels: list[RateChannel]
    rule: RateRule
    deltas: tuple[float, ...]
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    regularizer: Regularizer = field(default_factory=lambda: Quadratic(0.05))
    solve_cfg: SolveConfig = field(default_factory=lambda: SolveConfig(max_iters=4000, tol=1e-12))

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=np.float64)
        if d.size < 5 or np.any(np.diff(d) >= 0) or np.any(d <= 0):
            raise ValueError("need a strictly decreasing positive delta sequence, >= 5 levels")
        if len(self.channels) != len(self.rule.mu):
            raise ValueError("one mu exponent per channel required")
        if len(self.seeds) == 0:
            raise ValueError("need at least one seed")


def geometric_deltas(start: float = 0.1, ratio: float = 0.5, levels: int = 8) -> tuple:
    return tuple(start * ratio**k for k in range(levels))


@dataclass
class RateRow:
    level: int
    seed: int
    delta: float
    channel_deltas: list[float]
    lambdas: list[float]
    data_terms: list[float]
    reg: float
    bregman: float | None
    iterations: int
    converged: bool


@dataclass
class RateTable:
    n_channels: int
    rows: list[RateRow]
    data_slopes: list[float]  # seed-median fitted slope per channel
    bregman_slope: float | None
    lambda_premise: list[list[float]]  # per level: lambda_i * delta_i^{p_i}

    def to_csv(self) -> str:
        """Level-averaged table with the fixed column layout."""
        buf = io.StringIO()
        cols = ["level", "delta"]
        for i in range(self.n_channels):
            cols += [f"delta_{i + 1}", f"lambda_{i + 1}", f"data_{i + 1}"]
        cols += ["R", "bregman"]
        buf.write(",".join(cols) + "\n")
        levels = sorted({r.level for r in self.rows})
        for lv in levels:
            group = [r for r in self.rows if r.level == lv]
            vals: list[float] = [lv, group[0].delta]
            for i in range(self.n_channels):
                vals.append(np.mean([r.channel_deltas[i] for r in group]))
                vals.append(np.mean([r.lambdas[i] for r in group]))
                vals.append(np.mean([r.data_terms[i] for r in group]))
            vals.append(np.mean([r.reg for r in group]))
            vals.append(
                np.mean([r.bregman for r in group]) if group[0].bregman is not None else np.nan
            )
            buf.write(",".join(_fmt(v) for v in vals) + "\n")
        return buf.getvalue()


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def _channel_seed(master_seed: int, level: int, channel: int) -> int:
    return int(np.random.SeedSequence((master_seed, level, channel)).generate_state(1)[0])


def run_rate_experiment(exp: RateExperiment) -> RateTable:
    """Sweep noise levels, solve each instance, and fit log-log slopes.

    Every instance has the same operators, so each operator's norm is
    estimated once, by the first solve, and shared by all solves.  The rows
    are computed from each solve's result after it returns, never from its
    diagnostics, so the solves evaluate no per-iteration energies
    (``diag_every = max_iters``).
    """
    n = len(exp.channels)
    clean = [ch.op.apply(exp.u_true.channel(i)) for i, ch in enumerate(exp.channels)]
    scales = []
    for ch, f in zip(exp.channels, clean):
        if ch.kind == "l2":
            scales.append(float(np.linalg.norm(f)))
        else:
            scales.append(float(np.sum(np.abs(f))))
    rows: list[RateRow] = []
    premise: list[list[float]] = []
    p_pow = discrepancy_exponents([c.kind for c in exp.channels])
    cfg = replace(exp.solve_cfg, diag_every=exp.solve_cfg.max_iters)
    for lv, delta in enumerate(exp.deltas):
        premise_row = None
        for seed in exp.seeds:
            noisy, realized = [], []
            for i, ch in enumerate(exp.channels):
                target = (delta ** exp.rule.mu[i]) * scales[i]
                cseed = _channel_seed(seed, lv, i)
                if ch.kind == "l2":
                    nz = add_gaussian_noise(clean[i], target, cseed)
                else:
                    s = poisson_scale_for_delta(clean[i], target)
                    nz = add_poisson_noise(clean[i], s, cseed)
                noisy.append(nz.data)
                realized.append(max(nz.delta, 1e-300))
            lams = choose_lambdas(exp.rule, realized, [c.kind for c in exp.channels])
            lams = np.where(np.isfinite(lams), lams, LAMBDA_SENTINEL)
            spec = ProblemSpec(
                grid=exp.grid,
                channels=tuple(
                    ChannelSpec(op=ch.op, data=noisy[i], lam=float(lams[i]), kind=ch.kind)
                    for i, ch in enumerate(exp.channels)
                ),
                regularizer=exp.regularizer,
            )
            result = solve(spec, cfg)
            data_terms = [channel_data_term(spec, result.u, i) for i in range(n)]
            breg = (
                bregman_quadratic(result.u, exp.u_true, exp.regularizer.weight)
                if isinstance(exp.regularizer, Quadratic)
                else None
            )
            rows.append(
                RateRow(
                    level=lv,
                    seed=seed,
                    delta=delta,
                    channel_deltas=realized,
                    lambdas=[float(x) for x in lams],
                    data_terms=data_terms,
                    reg=regularizer_value(spec, result.u, result.v),
                    bregman=breg,
                    iterations=result.state.iteration,
                    converged=result.converged,
                )
            )
            if premise_row is None:
                premise_row = [
                    float(lams[i] * realized[i] ** p_pow[i]) for i in range(n)
                ]
        premise.append(premise_row)

    # one fit per seed; the table keeps their medians
    data_fits: list[list[float]] = []
    breg_fits: list[float] = []
    eps = 1e-300
    for seed in exp.seeds:
        srows = sorted((r for r in rows if r.seed == seed), key=lambda r: r.level)
        xs = [r.delta for r in srows]
        data_fits.append(
            [fit_loglog_slope(xs, [max(r.data_terms[i], eps) for r in srows])[0] for i in range(n)]
        )
        if srows[0].bregman is not None:
            breg_fits.append(fit_loglog_slope(xs, [max(r.bregman, eps) for r in srows])[0])
    data_slopes = [float(np.median([fits[i] for fits in data_fits])) for i in range(n)]
    breg_slope = float(np.median(breg_fits)) if breg_fits else None
    return RateTable(
        n_channels=n,
        rows=rows,
        data_slopes=data_slopes,
        bregman_slope=breg_slope,
        lambda_premise=premise,
    )
