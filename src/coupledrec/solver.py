"""Primal-dual solver for the coupled saddle-point problem.

One iteration: dual prox steps (coupling-ball projections and the
discrepancy conjugate proxes), a primal gradient-prox step, and 2x - x
over-relaxation.  The default stepsizes are sigma = tau = 0.99 / ||K||
with ||K|| estimated by power iteration and inflated by 1%.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import coupling as cpl
from .diffops import LinearOp, div, grad, op_norm_estimate, sym_div, sym_grad
from .discrepancy import (
    eval_kl,
    eval_l2sq,
    project_nonneg,
    prox_kl_dual,
    prox_l2_dual,
)
from .grids import (
    MultiImage,
    SymTensorField,
    VectorField,
    coupled_l1_norm,
    field_norm,
    inner_product,
    pointwise_norms,
    sym_weights,
)
from .problem import ProblemSpec, Quadratic, TGV2, WaveletL21


class SolverError(RuntimeError):
    """Numerical failure inside the iteration (non-finite state, divergence)."""


@dataclass
class SolverState:
    """All primal/dual iterates plus the active stepsizes."""

    u: MultiImage
    ubar: MultiImage
    v: VectorField | None
    vbar: VectorField | None
    p: VectorField | None
    q: SymTensorField | None
    s: MultiImage | None  # wavelet-mode dual coefficients
    r: list[np.ndarray]
    sigma: float
    tau: float
    iteration: int = 0


@dataclass
class Diagnostics:
    """Per-iteration solve history.

    ``iterations`` names the iteration of each recorded row of ``energy``,
    ``data_terms`` and ``reg_value``; ``rel_change`` has one entry for every
    iteration.
    """

    iterations: list[int] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    data_terms: list[list[float]] = field(default_factory=list)
    reg_value: list[float] = field(default_factory=list)
    rel_change: list[float] = field(default_factory=list)
    wall_time: float = 0.0


@dataclass
class SolveConfig:
    max_iters: int = 2000
    tol: float = 1e-8
    step_policy: str = "constant"  # "constant" | "adaptive"
    seed: int = 0
    warm_start: bool = False
    norm_iters: int = 100
    diag_every: int = 1  # record energy/data/reg every k-th iteration


@dataclass
class SolveResult:
    u: MultiImage
    v: VectorField | None
    diagnostics: Diagnostics
    state: SolverState
    converged: bool


def channel_data_term(problem: ProblemSpec, u: MultiImage, i: int) -> float:
    """D_i(T_i u_i, f_i) without the lambda weight."""
    c = problem.channels[i]
    pred = c.op.apply(u.channel(i))
    if c.kind == "l2":
        return eval_l2sq(pred, c.data)
    return eval_kl(pred + c.background, c.data)


def regularizer_value(problem: ProblemSpec, u: MultiImage, v: VectorField | None) -> float:
    reg = problem.regularizer
    if isinstance(reg, TGV2):
        if v is None:
            raise ValueError("TGV energy needs the balancing field v")
        diff = VectorField(u.grid, grad(u).values - v.values)
        return reg.alpha1 * coupled_l1_norm(diff, reg.coupling) + reg.alpha0 * coupled_l1_norm(
            sym_grad(v), "frobenius"
        )
    if isinstance(reg, WaveletL21):
        return cpl.group_l21_norm(cpl.haar_forward(u, reg.levels))
    return 0.5 * reg.weight * inner_product(u, u)


def _energy(problem: ProblemSpec, u: MultiImage, reg: float, data_terms: list[float]) -> float:
    """Objective from its parts: reg, then + lam_i * D_i; +inf when infeasible."""
    for i in problem.kl_channels:
        if np.any(u.channel(i) < 0):
            return np.inf
    total = reg
    for c, d in zip(problem.channels, data_terms):
        total += c.lam * d
        if not np.isfinite(total):
            return np.inf
    return total


def primal_energy(problem: ProblemSpec, u: MultiImage, v: VectorField | None = None) -> float:
    """Full objective; +inf when a KL channel is infeasible."""
    data_terms = [channel_data_term(problem, u, i) for i in range(problem.n_channels)]
    return _energy(problem, u, regularizer_value(problem, u, v), data_terms)


def _saddle_operator(problem: ProblemSpec) -> LinearOp:
    """K as a flat LinearOp over the stacked primal variables, for ||K||."""
    grid = problem.grid
    n = problem.n_channels
    reg = problem.regularizer
    nu = grid.sites * n
    ops = [c.op for c in problem.channels]
    data_dims = [op.codomain_dim for op in ops]
    sw = np.sqrt(sym_weights(grid.ndim))

    if isinstance(reg, TGV2):
        d = grid.ndim
        nv = nu * d
        u_shape = grid.dims + (n,)
        v_shape = grid.dims + (n, d)

        def apply(x):
            u = MultiImage(grid, x[:nu].reshape(u_shape))
            v = VectorField(grid, x[nu:].reshape(v_shape))
            gu = grad(u).values - v.values
            ev = sym_grad(v).values * sw
            parts = [gu.reshape(-1), ev.reshape(-1)]
            parts += [op.apply(u.channel(i)) for i, op in enumerate(ops)]
            return np.concatenate(parts)

        def adjoint(y):
            off = 0
            p = VectorField(grid, y[off : off + nv].reshape(v_shape))
            off += nv
            ns = nu * len(sw)
            q = SymTensorField(grid, y[off : off + ns].reshape(grid.dims + (n, len(sw))) / sw)
            off += ns
            ut = -div(p).values
            for i, op in enumerate(ops):
                ut[..., i] += op.adjoint(y[off : off + data_dims[i]])
                off += data_dims[i]
            vt = -p.values - sym_div(q).values
            return np.concatenate([ut.reshape(-1), vt.reshape(-1)])

        cod = nv + nu * len(sw) + sum(data_dims)
        return LinearOp(apply, adjoint, nu + nv, cod)

    if isinstance(reg, WaveletL21):
        u_shape = grid.dims + (n,)

        def apply(x):
            u = MultiImage(grid, x.reshape(u_shape))
            parts = [cpl.haar_forward(u, reg.levels).values.reshape(-1)]
            parts += [op.apply(u.channel(i)) for i, op in enumerate(ops)]
            return np.concatenate(parts)

        def adjoint(y):
            coeffs = MultiImage(grid, y[:nu].reshape(u_shape))
            ut = cpl.haar_inverse(coeffs, reg.levels).values.copy()
            off = nu
            for i, op in enumerate(ops):
                ut[..., i] += op.adjoint(y[off : off + data_dims[i]])
                off += data_dims[i]
            return ut.reshape(-1)

        return LinearOp(apply, adjoint, nu, nu + sum(data_dims))

    u_shape = grid.dims + (n,)

    def apply(x):
        u = MultiImage(grid, x.reshape(u_shape))
        return np.concatenate([op.apply(u.channel(i)) for i, op in enumerate(ops)])

    def adjoint(y):
        ut = np.zeros(u_shape)
        off = 0
        for i, op in enumerate(ops):
            ut[..., i] = op.adjoint(y[off : off + data_dims[i]])
            off += data_dims[i]
        return ut.reshape(-1)

    return LinearOp(apply, adjoint, nu, sum(data_dims))


def estimate_saddle_norm(problem: ProblemSpec, iters: int = 100, seed: int = 0) -> float:
    """Power-iteration estimate of ||K||, inflated by 1% for safety."""
    return 1.01 * op_norm_estimate(_saddle_operator(problem), iters=iters, seed=seed)


def check_affine_injectivity(problem: ProblemSpec, tol: float = 1e-8) -> None:
    """Require every T_i to be injective on per-channel affine images."""
    grid = problem.grid
    coords = np.meshgrid(
        *[np.arange(nx, dtype=np.float64) * h for nx, h in zip(grid.dims, grid.spacing)],
        indexing="ij",
    )
    basis = [np.ones(grid.dims)] + [c for c in coords]
    for i, c in enumerate(problem.channels):
        cols = np.stack([c.op.apply(b / np.linalg.norm(b)) for b in basis], axis=1)
        smin = np.linalg.svd(cols, compute_uv=False)[-1]
        if smin <= tol:
            raise SolverError(
                f"channel {i}: forward operator nearly vanishes on an affine image "
                f"(smallest singular value {smin:.2e}); TGV mode needs affine injectivity"
            )


def _init_state(problem: ProblemSpec, cfg: SolveConfig, knorm: float) -> SolverState:
    grid = problem.grid
    n = problem.n_channels
    reg = problem.regularizer
    if cfg.warm_start:
        uvals = np.stack(
            [problem.channels[i].op.adjoint(problem.channels[i].data) for i in range(n)],
            axis=-1,
        ) / max(knorm, 1e-30)
        u = MultiImage(grid, uvals)
        u = project_nonneg(u, problem.kl_channels)
    else:
        u = MultiImage.zeros(grid, n)
    step = 0.99 / max(knorm, 1e-30)
    state = SolverState(
        u=u,
        ubar=u,
        v=None,
        vbar=None,
        p=None,
        q=None,
        s=None,
        r=[np.zeros(c.op.codomain_dim) for c in problem.channels],
        sigma=step,
        tau=step,
    )
    if isinstance(reg, TGV2):
        state.v = VectorField.zeros(grid, n)
        state.vbar = state.v
        state.p = VectorField.zeros(grid, n)
        state.q = SymTensorField.zeros(grid, n)
    elif isinstance(reg, WaveletL21):
        state.s = MultiImage.zeros(grid, n)
    return state


def _primal_prox(problem: ProblemSpec, uvals: np.ndarray, tau: float) -> np.ndarray:
    """Primal prox on a freshly computed array, which it may overwrite."""
    reg = problem.regularizer
    if isinstance(reg, Quadratic):
        uvals = uvals / (1.0 + tau * reg.weight)
    for i in problem.kl_channels:
        np.maximum(uvals[..., i], 0.0, out=uvals[..., i])
    return uvals


def _require_finite(iteration: int, **arrays: np.ndarray) -> None:
    for name, values in arrays.items():
        if not np.all(np.isfinite(values)):
            raise SolverError(f"non-finite primal iterate {name} at iteration {iteration}")


def pd_step(problem: ProblemSpec, state: SolverState) -> SolverState:
    """One full primal-dual iteration; raises SolverError on non-finite state."""
    reg = problem.regularizer
    sigma, tau = state.sigma, state.tau
    grid = problem.grid

    r_new = []
    for i, c in enumerate(problem.channels):
        pred = c.op.apply(state.ubar.channel(i))
        if c.kind == "l2":
            r_new.append(prox_l2_dual(state.r[i] + sigma * (pred - c.data), sigma, c.lam))
        else:
            r_new.append(
                prox_kl_dual(state.r[i] + sigma * (pred + c.background), c.data, sigma, c.lam)
            )

    tstar = np.empty(grid.dims + (problem.n_channels,))
    for i, c in enumerate(problem.channels):
        tstar[..., i] = c.op.adjoint(r_new[i])

    iteration = state.iteration + 1
    updates = {}
    if isinstance(reg, TGV2):
        phat = VectorField(
            grid, state.p.values + sigma * (grad(state.ubar).values - state.vbar.values)
        )
        p_new = cpl.project_dual_ball(phat, reg.alpha1, reg.coupling)
        qhat = SymTensorField(grid, state.q.values + sigma * sym_grad(state.vbar).values)
        q_new = cpl.project_dual_ball(qhat, reg.alpha0, "frobenius")
        v_new = state.v.values - tau * (-p_new.values - sym_div(q_new).values)
        vbar_new = 2.0 * v_new - state.v.values
        _require_finite(iteration, v=v_new, vbar=vbar_new)
        updates = {
            "p": p_new,
            "q": q_new,
            "v": VectorField(grid, v_new),
            "vbar": VectorField(grid, vbar_new),
        }
        u_grad = -div(p_new).values + tstar
    elif isinstance(reg, WaveletL21):
        shat = MultiImage(
            grid,
            state.s.values + sigma * cpl.haar_forward(state.ubar, reg.levels).values,
        )
        updates = {"s": cpl.project_group_l2ball(shat, 1.0)}
        u_grad = cpl.haar_inverse(updates["s"], reg.levels).values + tstar
    else:
        u_grad = tstar

    u_new = _primal_prox(problem, state.u.values - tau * u_grad, tau)
    ubar_new = 2.0 * u_new - state.u.values
    _require_finite(iteration, u=u_new, ubar=ubar_new)
    return replace(
        state,
        u=MultiImage(grid, u_new),
        ubar=MultiImage(grid, ubar_new),
        r=r_new,
        iteration=iteration,
        **updates,
    )


def step_policy(
    kind: str, state: SolverState, primal_res: float, dual_res: float, step_cap: float
) -> tuple[float, float]:
    """Stepsize update S. Constant keeps (sigma, tau); adaptive balances residuals.

    The adaptive rule nudges sigma up (tau down) when the dual residual
    dominates by 10x and conversely; the product sigma*tau never exceeds
    step_cap**2.
    """
    if kind == "constant":
        return state.sigma, state.tau
    if kind != "adaptive":
        raise ValueError(f"unknown step policy {kind!r}")
    sigma, tau = state.sigma, state.tau
    if dual_res > 10.0 * primal_res:
        sigma, tau = sigma * 1.05, tau / 1.05
    elif primal_res > 10.0 * dual_res:
        sigma, tau = sigma / 1.05, tau * 1.05
    scale = np.sqrt(sigma * tau) / step_cap
    if scale > 1.0:
        sigma, tau = sigma / scale, tau / scale
    return sigma, tau


def _residuals(problem: ProblemSpec, old: SolverState, new: SolverState) -> tuple[float, float]:
    primal = field_norm(
        MultiImage(problem.grid, new.u.values - old.u.values)
    ) / max(new.tau, 1e-30)
    if old.v is not None:
        primal += field_norm(
            VectorField(problem.grid, new.v.values - old.v.values)
        ) / max(new.tau, 1e-30)
    dual = sum(float(np.linalg.norm(a - b)) for a, b in zip(new.r, old.r)) / max(
        new.sigma, 1e-30
    )
    if old.p is not None:
        dual += field_norm(VectorField(problem.grid, new.p.values - old.p.values)) / max(
            new.sigma, 1e-30
        )
    return primal, dual


def solve(problem: ProblemSpec, cfg: SolveConfig | None = None) -> SolveResult:
    """Run the primal-dual iteration to the relative-change stopping rule."""
    cfg = cfg or SolveConfig()
    if isinstance(problem.regularizer, TGV2):
        check_affine_injectivity(problem)
    knorm = estimate_saddle_norm(problem, iters=cfg.norm_iters, seed=cfg.seed)
    if knorm <= 0:
        raise SolverError("saddle operator has zero norm")
    state = _init_state(problem, cfg, knorm)
    step_cap = 0.99 / knorm
    diag = Diagnostics()
    t0 = time.perf_counter()
    quiet_streak = 0
    converged = False
    tiny = 1e-30
    for _ in range(cfg.max_iters):
        new = pd_step(problem, state)
        if cfg.step_policy == "adaptive":
            pres, dres = _residuals(problem, state, new)
            new.sigma, new.tau = step_policy("adaptive", new, pres, dres, step_cap)
        rel = field_norm(
            MultiImage(problem.grid, new.u.values - state.u.values)
        ) / max(field_norm(state.u), tiny)
        if new.iteration % max(cfg.diag_every, 1) == 0:
            data_terms = [channel_data_term(problem, new.u, i) for i in range(problem.n_channels)]
            reg_value = regularizer_value(problem, new.u, new.v)
            diag.iterations.append(new.iteration)
            diag.energy.append(_energy(problem, new.u, reg_value, data_terms))
            diag.data_terms.append(data_terms)
            diag.reg_value.append(reg_value)
        diag.rel_change.append(rel)
        state = new
        if rel < cfg.tol:
            quiet_streak += 1
            if quiet_streak >= 10:
                converged = True
                break
        else:
            quiet_streak = 0
    diag.wall_time = time.perf_counter() - t0
    return SolveResult(u=state.u, v=state.v, diagnostics=diag, state=state, converged=converged)


def dual_feasibility_gap(problem: ProblemSpec, state: SolverState) -> float:
    """Max violation of the pointwise dual-ball constraints (0 when feasible)."""
    reg = problem.regularizer
    worst = 0.0
    if isinstance(reg, TGV2):
        worst = max(worst, float(pointwise_norms(state.p, reg.coupling).max() - reg.alpha1))
        worst = max(worst, float(pointwise_norms(state.q, "frobenius").max() - reg.alpha0))
    return max(worst, 0.0)


# --- checkpointing -----------------------------------------------------------

_CHK_MAGIC = b"CRCK"


def _write_block(fh, values: np.ndarray) -> None:
    arr = np.ascontiguousarray(values, dtype="<f8")
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.tobytes())


def _read_block(buf: bytes, off: int) -> tuple[np.ndarray, int]:
    (nd,) = struct.unpack_from("<I", buf, off)
    off += 4
    shape = struct.unpack_from(f"<{nd}I", buf, off)
    off += 4 * nd
    count = int(np.prod(shape))
    arr = np.frombuffer(buf, dtype="<f8", count=count, offset=off).reshape(shape)
    return arr.astype(np.float64), off + 8 * count


def save_checkpoint(path: str | Path, state: SolverState) -> None:
    """Serialize the full solver state (bitwise-reproducible resume)."""
    manifest = {
        "sigma": state.sigma,
        "tau": state.tau,
        "iteration": state.iteration,
        "fields": [],
        "n_r": len(state.r),
    }
    blocks = []
    for name in ("u", "ubar", "v", "vbar", "p", "q", "s"):
        f = getattr(state, name)
        if f is not None:
            manifest["fields"].append(name)
            blocks.append(f.values)
    blocks.extend(state.r)
    mjson = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_CHK_MAGIC)
        fh.write(struct.pack("<I", len(mjson)))
        fh.write(mjson)
        for b in blocks:
            _write_block(fh, b)


def load_checkpoint(path: str | Path, problem: ProblemSpec) -> SolverState:
    buf = Path(path).read_bytes()
    if buf[:4] != _CHK_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (mlen,) = struct.unpack_from("<I", buf, 4)
    manifest = json.loads(buf[8 : 8 + mlen].decode())
    off = 8 + mlen
    grid = problem.grid
    wrap = {
        "u": lambda a: MultiImage(grid, a),
        "ubar": lambda a: MultiImage(grid, a),
        "v": lambda a: VectorField(grid, a),
        "vbar": lambda a: VectorField(grid, a),
        "p": lambda a: VectorField(grid, a),
        "q": lambda a: SymTensorField(grid, a),
        "s": lambda a: MultiImage(grid, a),
    }
    fields = {k: None for k in wrap}
    for name in manifest["fields"]:
        arr, off = _read_block(buf, off)
        fields[name] = wrap[name](arr)
    r = []
    for _ in range(manifest["n_r"]):
        arr, off = _read_block(buf, off)
        r.append(arr.reshape(-1))
    return SolverState(
        u=fields["u"],
        ubar=fields["ubar"],
        v=fields["v"],
        vbar=fields["vbar"],
        p=fields["p"],
        q=fields["q"],
        s=fields["s"],
        r=r,
        sigma=manifest["sigma"],
        tau=manifest["tau"],
        iteration=manifest["iteration"],
    )
