"""Primal-dual solver for the coupled saddle-point problem.

One iteration over K = [K_reg; T_1; ...; T_N]: dual prox steps (the
regularizer's dual-ball projections and the discrepancy conjugate proxes), a
primal gradient-prox step, and 2x - x over-relaxation.  The default
stepsizes are sigma = tau = 0.99 / ||K|| with ||K|| estimated by power
iteration and inflated by 1%.  Each regularizer is described once, in
``_BLOCKS``; inside the loop all iterates are plain float64 arrays.

The work a solve does on K alone (the estimate of ||K||, and the
affine-injectivity check under TGV) is done by :func:`prepare`; solves of
problems that differ only in their data and weights can share its result.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import coupling as cpl
from .diffops import (
    LinearOp,
    div_array,
    grad_array,
    op_norm_estimate,
    sym_div_array,
    sym_grad_array,
)
from .discrepancy import eval_kl, eval_l2sq, prox_kl_dual, prox_l2_dual
from .forward import ForwardOp
from .grids import Grid, MultiImage, SymTensorField, VectorField, pointwise_norms_array
from .problem import ProblemSpec, Quadratic, Regularizer, TGV2, WaveletL21

# Unused here, but bench/tracing.py rebinds these names on this module.
from .diffops import div, grad, sym_div, sym_grad  # noqa: F401
from .grids import inner_product, pointwise_norms  # noqa: F401


class SolverError(RuntimeError):
    """Numerical failure inside the iteration (non-finite state, divergence)."""


@dataclass
class SolverState:
    """All primal/dual iterates as float64 arrays, plus the active stepsizes.

    ``v``, ``vbar``, ``p``, ``q`` (TGV) and ``s`` (wavelets) are ``None``
    unless the regularizer uses them; shapes as in ``_iterate_shapes``.
    """

    u: np.ndarray
    ubar: np.ndarray
    r: list[np.ndarray]
    sigma: float
    tau: float
    v: np.ndarray | None = None
    vbar: np.ndarray | None = None
    p: np.ndarray | None = None
    q: np.ndarray | None = None
    s: np.ndarray | None = None  # wavelet-mode dual coefficients
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


STEP_POLICIES = ("constant", "adaptive")


@dataclass
class SolveConfig:
    max_iters: int = 2000
    tol: float = 1e-8
    step_policy: str = "constant"  # one of STEP_POLICIES
    warm_start: bool = False
    diag_every: int = 1  # record energy/data/reg every k-th iteration

    def __post_init__(self):
        if self.step_policy not in STEP_POLICIES:
            raise ValueError(
                f"unknown step policy {self.step_policy!r}; expected one of {STEP_POLICIES}"
            )
        if not 0 <= self.tol < np.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")
        for name in ("max_iters", "diag_every"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {count!r}")


@dataclass
class SolveResult:
    u: MultiImage
    v: VectorField | None
    diagnostics: Diagnostics
    state: SolverState
    converged: bool
    knorm: float  # the estimate of ||K|| the stepsizes were set from


# --- the regularizer table ---------------------------------------------------


# The field kind of each regularizer iterate: the iterate is shaped
# (*dims, N) + kind.tail(d), and its inner product is weighted by kind.weights(d).
_KINDS = {"v": VectorField, "p": VectorField, "q": SymTensorField, "s": MultiImage}


@dataclass(frozen=True)
class _Block:
    """A regularizer's part of the saddle problem; the defaults have no K_reg.

    ``primal`` names its iterates besides u, ``dual`` its dual iterates (both
    keys of ``_KINDS``).  The functions take the regularizer, the grid
    spacing h, then arrays: ``value`` and ``apply`` (K_reg, one array per
    dual) take (u, *primal); ``adjoint`` (the u part, None if K_reg ignores
    u, then one per primal) and ``project`` (the dual prox) take the duals.
    """

    value: Callable
    primal: tuple[str, ...] = ()
    dual: tuple[str, ...] = ()
    apply: Callable = lambda reg, h, u: ()
    adjoint: Callable = lambda reg, h: (None,)
    project: Callable = lambda reg, h: ()
    prox: Callable | None = None  # (reg, u, tau) -> primal prox of u
    affine_injective: bool = False  # every T_i must be injective on affine images


def _tgv_value(reg, h, u, v):
    first = pointwise_norms_array(grad_array(u, h) - v, reg.coupling)
    second = pointwise_norms_array(sym_grad_array(v, h), weights=SymTensorField.weights(len(h)))
    return reg.alpha1 * float(first.sum()) + reg.alpha0 * float(second.sum())


_BLOCKS = {
    TGV2: _Block(
        primal=("v",),
        dual=("p", "q"),
        apply=lambda reg, h, u, v: (grad_array(u, h) - v, sym_grad_array(v, h)),
        adjoint=lambda reg, h, p, q: (-div_array(p, h), -p - sym_div_array(q, h)),
        project=lambda reg, h, p, q: (
            cpl.project_dual_ball_array(p, reg.alpha1, reg.coupling),
            cpl.project_dual_ball_array(q, reg.alpha0, weights=SymTensorField.weights(len(h))),
        ),
        value=_tgv_value,
        affine_injective=True,
    ),
    WaveletL21: _Block(
        dual=("s",),
        apply=lambda reg, h, u: (cpl.haar_forward_array(u, reg.levels),),
        adjoint=lambda reg, h, s: (cpl.haar_inverse_array(s, reg.levels),),
        project=lambda reg, h, s: (cpl.project_group_l2ball_array(s, 1.0),),
        value=lambda reg, h, u: cpl.group_l21_norm(cpl.haar_forward_array(u, reg.levels)),
    ),
    Quadratic: _Block(
        value=lambda reg, h, u: 0.5 * reg.weight * float(np.sum(u * u)),
        prox=lambda reg, u, tau: u / (1.0 + tau * reg.weight),
    ),
}


def _block(reg) -> _Block:
    """The table entry of a regularizer: the one place its type is tested."""
    try:
        return _BLOCKS[type(reg)]
    except KeyError:
        raise ValueError(f"unsupported regularizer {type(reg).__name__}") from None


def _iterates(state: SolverState, names, suffix: str = "") -> list[np.ndarray]:
    return [getattr(state, name + suffix) for name in names]


def _iterate_shapes(problem: ProblemSpec) -> dict[str, tuple[int, ...]]:
    """Shape of every iterate the problem's regularizer uses, in checkpoint order."""
    grid = problem.grid
    block = _block(problem.regularizer)
    base = grid.dims + (problem.n_channels,)
    shapes = {"u": base, "ubar": base}
    for name in block.primal:
        shapes[name] = shapes[name + "bar"] = base + _KINDS[name].tail(grid.ndim)
    for name in block.dual:
        shapes[name] = base + _KINDS[name].tail(grid.ndim)
    return shapes


def _data_term(problem: ProblemSpec, u: np.ndarray, i: int) -> float:
    c = problem.channels[i]
    pred = c.op.apply(u[..., i])
    if c.kind == "l2":
        return eval_l2sq(pred, c.data)
    return eval_kl(pred + c.background, c.data)


def channel_data_term(problem: ProblemSpec, u: MultiImage, i: int) -> float:
    """D_i(T_i u_i, f_i) without the lambda weight."""
    return _data_term(problem, u.values, i)


def regularizer_value(problem: ProblemSpec, u: MultiImage, v: VectorField | None) -> float:
    reg = problem.regularizer
    block = _block(reg)
    if block.primal and v is None:
        raise ValueError(f"{type(reg).__name__} energy needs the balancing field v")
    primal = (v.values,) if block.primal else ()
    return block.value(reg, problem.grid.spacing, u.values, *primal)


def _energy(problem: ProblemSpec, u: np.ndarray, reg: float, data_terms: list[float]) -> float:
    """Objective from its parts: reg, then + lam_i * D_i; +inf when infeasible."""
    for i in problem.kl_channels:
        if np.any(u[..., i] < 0):
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
    return _energy(problem, u.values, regularizer_value(problem, u, v), data_terms)


def _splitter(shapes) -> tuple[Callable, int]:
    """A function cutting a flat vector into consecutive pieces of ``shapes``,
    and the length of that vector."""
    ends = np.cumsum([int(np.prod(s)) for s in shapes]).tolist()
    starts = [0] + ends[:-1]
    return lambda flat: [flat[a:b].reshape(s) for a, b, s in zip(starts, ends, shapes)], ends[-1]


def _data_adjoint(problem: ProblemSpec, r: list[np.ndarray]) -> np.ndarray:
    """T_i^* r_i for every channel i, stacked into a ``(*dims, N)`` array."""
    tstar = np.empty(problem.grid.dims + (problem.n_channels,))
    for i, c in enumerate(problem.channels):
        tstar[..., i] = c.op.adjoint(r[i])
    return tstar


def _saddle_operator(problem: ProblemSpec) -> LinearOp:
    """K as a flat LinearOp over the stacked primal variables, for ||K||.

    A dual variable with inner-product weights w is stored as sqrt(w) times
    its entries, so that the Euclidean dot product is the weighted one.
    """
    reg, h = problem.regularizer, problem.grid.spacing
    block = _block(reg)
    shapes = _iterate_shapes(problem)
    ops = [c.op for c in problem.channels]
    split_x, domain = _splitter([shapes[name] for name in ("u",) + block.primal])
    data_dims = [op.codomain_dim for op in ops]
    split_y, codomain = _splitter([shapes[name] for name in block.dual] + data_dims)
    weights = [_KINDS[name].weights(len(h)) for name in block.dual]
    roots = [None if w is None else np.sqrt(w) for w in weights]

    def apply(x):
        u, *xs = split_x(x)
        rows = zip(block.apply(reg, h, u, *xs), roots)
        parts = [(k if w is None else k * w).reshape(-1) for k, w in rows]
        return np.concatenate(parts + [op.apply(u[..., i]) for i, op in enumerate(ops)])

    def adjoint(y):
        pieces = split_y(y)
        duals = [k if w is None else k / w for k, w in zip(pieces, roots)]
        u_part, *x_parts = block.adjoint(reg, h, *duals)
        tstar = _data_adjoint(problem, pieces[len(duals) :])
        if u_part is not None:
            tstar += u_part
        if not x_parts:
            return tstar.reshape(-1)
        return np.concatenate([tstar.reshape(-1)] + [g.reshape(-1) for g in x_parts])

    return LinearOp(apply, adjoint, domain, codomain)


def estimate_saddle_norm(problem: ProblemSpec) -> float:
    """Power-iteration estimate of ||K|| (at most 100 iterations, stopping once
    the estimate settles, from a fixed seed of 0), inflated by 1% for safety."""
    return 1.01 * op_norm_estimate(_saddle_operator(problem), iters=100, seed=0)


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


def _clamp_kl(problem: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """Clamp the KL channels of a ``(*dims, N)`` array at zero, in place."""
    for i in problem.kl_channels:
        np.maximum(u[..., i], 0.0, out=u[..., i])
    return u


def _init_state(problem: ProblemSpec, cfg: SolveConfig, knorm: float) -> SolverState:
    iterates = {name: np.zeros(shape) for name, shape in _iterate_shapes(problem).items()}
    if cfg.warm_start:
        u = np.stack([c.op.adjoint(c.data) for c in problem.channels], axis=-1) / max(knorm, 1e-30)
        iterates["u"] = iterates["ubar"] = _clamp_kl(problem, u)
    step = 0.99 / max(knorm, 1e-30)
    r = [np.zeros(c.op.codomain_dim) for c in problem.channels]
    return SolverState(r=r, sigma=step, tau=step, **iterates)


def _require_finite(iteration: int, **arrays: np.ndarray) -> None:
    for name, values in arrays.items():
        if not np.all(np.isfinite(values)):
            raise SolverError(f"non-finite primal iterate {name} at iteration {iteration}")


def pd_step(problem: ProblemSpec, state: SolverState) -> SolverState:
    """One full primal-dual iteration; raises SolverError on non-finite state."""
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
    duals = dict(zip(block.dual, block.project(reg, h, *dual_hat)))
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
        u_new = block.prox(reg, u_new, tau)
    _clamp_kl(problem, u_new)
    ubar_new = 2.0 * u_new - state.u
    _require_finite(iteration, u=u_new, ubar=ubar_new)
    return replace(state, u=u_new, ubar=ubar_new, r=r_new, iteration=iteration, **duals, **primal)


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


def _norm(x: np.ndarray, weights: np.ndarray | None = None) -> float:
    return float(np.sqrt(np.sum(x * x if weights is None else x * x * weights)))


def _residuals(problem: ProblemSpec, old: SolverState, new: SolverState) -> tuple[float, float]:
    """Primal and dual residuals: iterate changes over tau and over sigma."""
    block = _block(problem.regularizer)
    d = problem.grid.ndim

    def dist(names):
        return sum(_norm(getattr(new, n) - getattr(old, n), _KINDS[n].weights(d)) for n in names)

    primal = (_norm(new.u - old.u) + dist(block.primal)) / max(new.tau, 1e-30)
    dual = sum(float(np.linalg.norm(a - b)) for a, b in zip(new.r, old.r))
    return primal, (dual + dist(block.dual)) / max(new.sigma, 1e-30)


@dataclass(frozen=True)
class Setup:
    """What :func:`prepare` computed for the saddle operator K of a problem.

    K depends on the channel operators, the grid and the regularizer, not on
    the data or the weights, so one setup serves every problem that shares
    those three; the operators are compared by identity.  ``knorm`` is the
    power-iteration estimate of ||K||.
    """

    ops: tuple[ForwardOp, ...]
    grid: Grid
    regularizer: Regularizer
    knorm: float

    def require_fits(self, problem: ProblemSpec) -> None:
        """Raise ValueError unless this setup was prepared for ``problem``'s K."""
        if problem.grid != self.grid:
            raise ValueError(f"setup was prepared for grid {self.grid}, not {problem.grid}")
        ops = [c.op for c in problem.channels]
        if len(ops) != len(self.ops) or any(a is not b for a, b in zip(ops, self.ops)):
            raise ValueError("setup was prepared for other channel operators")
        if problem.regularizer != self.regularizer:
            raise ValueError(
                f"setup was prepared for regularizer {self.regularizer}, not {problem.regularizer}"
            )


def prepare(problem: ProblemSpec) -> Setup:
    """Check and measure the saddle operator K of ``problem`` once.

    Runs the affine-injectivity check when the regularizer needs it, then
    estimates ||K|| by power iteration.  Raises SolverError when either
    fails.
    """
    if _block(problem.regularizer).affine_injective:
        check_affine_injectivity(problem)
    knorm = estimate_saddle_norm(problem)
    if knorm <= 0:
        raise SolverError("saddle operator has zero norm")
    ops = tuple(c.op for c in problem.channels)
    return Setup(ops, problem.grid, problem.regularizer, knorm)


def solve(
    problem: ProblemSpec, cfg: SolveConfig | None = None, setup: Setup | None = None
) -> SolveResult:
    """Run the primal-dual iteration to the relative-change stopping rule.

    ``setup`` is ``prepare(problem)`` unless given; a given setup must fit
    the problem (ValueError otherwise), and the result is then the same, bit
    for bit.
    """
    cfg = cfg or SolveConfig()
    if setup is None:
        setup = prepare(problem)
    setup.require_fits(problem)
    reg, grid = problem.regularizer, problem.grid
    block = _block(reg)
    knorm = setup.knorm
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
        rel = _norm(new.u - state.u) / max(_norm(state.u), tiny)
        if new.iteration % cfg.diag_every == 0:
            data_terms = [_data_term(problem, new.u, i) for i in range(problem.n_channels)]
            reg_value = block.value(reg, grid.spacing, new.u, *_iterates(new, block.primal))
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
    u, v = MultiImage(grid, state.u), None if state.v is None else VectorField(grid, state.v)
    return SolveResult(u=u, v=v, diagnostics=diag, state=state, converged=converged, knorm=knorm)


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
    """Serialize the full solver state (bitwise-reproducible continuation)."""
    names = [n for n in ("u", "ubar", "v", "vbar", "p", "q", "s") if getattr(state, n) is not None]
    manifest = {
        "sigma": state.sigma,
        "tau": state.tau,
        "iteration": state.iteration,
        "fields": names,
        "n_r": len(state.r),
    }
    blocks = [getattr(state, n) for n in names] + state.r
    mjson = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_CHK_MAGIC)
        fh.write(struct.pack("<I", len(mjson)))
        fh.write(mjson)
        for b in blocks:
            _write_block(fh, b)


def load_checkpoint(path: str | Path, problem: ProblemSpec) -> SolverState:
    """Read a state written by :func:`save_checkpoint` for ``problem``."""
    buf = Path(path).read_bytes()
    if buf[:4] != _CHK_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (mlen,) = struct.unpack_from("<I", buf, 4)
    manifest = json.loads(buf[8 : 8 + mlen].decode())
    off = 8 + mlen
    shapes = _iterate_shapes(problem)
    if manifest["fields"] != list(shapes):
        raise ValueError(f"{path}: fields {manifest['fields']} do not match {list(shapes)}")
    iterates = {}
    for name, shape in shapes.items():
        arr, off = _read_block(buf, off)
        if arr.shape != shape or not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: {name} must be finite with shape {shape}, got {arr.shape}")
        iterates[name] = arr
    if manifest["n_r"] != problem.n_channels:
        raise ValueError(f"{path}: {manifest['n_r']} r blocks for {problem.n_channels} channels")
    r = []
    for i, c in enumerate(problem.channels):
        arr, off = _read_block(buf, off)
        if arr.size != c.op.codomain_dim or not np.all(np.isfinite(arr)):
            raise ValueError(
                f"{path}: r[{i}] must be finite with length {c.op.codomain_dim}, got {arr.size}"
            )
        r.append(arr.reshape(-1))
    sigma, tau, iteration = manifest["sigma"], manifest["tau"], manifest["iteration"]
    if not (0 < sigma < np.inf and 0 < tau < np.inf):
        raise ValueError(f"{path}: sigma = {sigma} and tau = {tau} must be positive and finite")
    return SolverState(r=r, sigma=sigma, tau=tau, iteration=iteration, **iterates)
