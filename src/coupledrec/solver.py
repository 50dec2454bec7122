"""Primal-dual solver for the coupled saddle-point problem.

One iteration over K = [K_reg; T_1; ...; T_N]: dual prox steps (the
regularizer's dual-ball projections and the discrepancy conjugate proxes), a
primal gradient-prox step, and 2x - x over-relaxation.  Every block of K has
its own step: each dual block (the regularizer's duals, and r_i of each
channel) and each primal block (each channel u_i of u, and the regularizer's
primal iterates) is stepped by 0.99 over the sum of the norms of K's blocks
in its row or column (:func:`block_steps`).  The regularizer's block norms
are closed forms; each ||T_i|| is its operator's :attr:`ForwardOp.norm`,
inflated by 1%.  Each regularizer is described once, in ``_BLOCKS``, with
one ball per dual: R sums each radius alpha_j times the pointwise coupling
norms of the dual's part of K_reg x, and the dual's prox projects onto the
alpha_j-ball of the dual norm.  Inside the loop all iterates are plain
float64 arrays.

``ForwardOp.norm`` is computed once per operator, so solves of problems that
share their operators and differ only in data and weights power-iterate each
operator once between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import coupling as cpl
from .diffops import (
    div_array,
    grad_array,
    grad_norm,
    sym_div_array,
    sym_grad_array,
    sym_grad_norm_bound,
)
from .discrepancy import eval_kl, eval_l2sq, prox_kl_dual, prox_l2_dual
from .grids import MultiImage, SymTensorField, VectorField, pointwise_norms_array
from .problem import ProblemSpec, Quadratic, TGV2, WaveletL21

# Unused here, but bench/tracing.py rebinds these names on this module.
from .diffops import div, grad, op_norm_estimate, sym_div, sym_grad  # noqa: F401
from .grids import inner_product, pointwise_norms  # noqa: F401


class SolverError(RuntimeError):
    """Numerical failure inside the iteration (non-finite state, divergence)."""


@dataclass
class SolverState:
    """All primal/dual iterates as float64 arrays, plus the stepsizes.

    ``v``, ``vbar``, ``p``, ``q`` (TGV) and ``s`` (wavelets) are ``None``
    unless the regularizer uses them; shapes as in ``_iterate_shapes``.
    ``sigma`` has one step per dual block and ``tau`` one per primal block,
    in the order of :func:`block_names`.
    """

    u: np.ndarray
    ubar: np.ndarray
    r: list[np.ndarray]
    sigma: tuple[float, ...]
    tau: tuple[float, ...]
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


@dataclass
class SolveConfig:
    max_iters: int = 2000
    tol: float = 1e-8
    warm_start: bool = False
    diag_every: int = 1  # record energy/data/reg every k-th iteration

    def __post_init__(self):
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


# --- the regularizer table ---------------------------------------------------


# The field kind of each regularizer iterate: the iterate is shaped
# (*dims, N) + kind.tail(d), and its inner product is weighted by kind.weights(d).
_KINDS = {"v": VectorField, "p": VectorField, "q": SymTensorField, "s": MultiImage}


@dataclass(frozen=True)
class _Block:
    """A regularizer's part of the saddle problem; the defaults have no K_reg.

    ``primal`` names its iterates besides u, ``dual`` its dual iterates (both
    keys of ``_KINDS``).  The functions take the regularizer, the grid
    spacing h, then arrays: ``apply`` (K_reg, one array per dual) and
    ``value`` (the part of R outside K_reg) take (u, *primal); ``adjoint``
    (the u part, None if K_reg ignores u, then one per primal) takes the
    duals.  ``balls`` takes the regularizer and gives each dual's ball, a
    (radius, coupling) pair: the dual prox projects onto it, in the weights
    of the dual's field kind, and R sums radius times the coupling norm of
    K_reg's output.  ``norms`` takes the regularizer and the grid and gives,
    for each dual, the norm of K_reg's block from one channel of u, then
    from each primal, in the weighted inner products (an upper bound where
    no closed form is exact).
    """

    primal: tuple[str, ...] = ()
    dual: tuple[str, ...] = ()
    apply: Callable = lambda reg, h, u: ()
    adjoint: Callable = lambda reg, h: (None,)
    balls: Callable = lambda reg: ()
    norms: Callable = lambda reg, grid: ()
    value: Callable = lambda reg, h, u, *primal: 0.0
    prox: Callable | None = None  # (reg, u, tau per channel) -> primal prox of u, in place
    affine_injective: bool = False  # every T_i must be injective on affine images


def _per_channel(ufunc, x: np.ndarray, values) -> np.ndarray:
    """``x[..., i] = ufunc(x[..., i], values[i])`` for every channel i, in place.

    Equal values take one call over the whole array: a strided call per
    channel costs about twice as much per element on small images.
    """
    if len(set(values)) == 1:
        return ufunc(x, values[0], out=x)
    for i, value in enumerate(values):
        ufunc(x[..., i], value, out=x[..., i])
    return x


def _quadratic_prox(reg, u, tau):
    return _per_channel(np.divide, u, [1.0 + t * reg.weight for t in tau])


_BLOCKS = {
    TGV2: _Block(
        primal=("v",),
        dual=("p", "q"),
        apply=lambda reg, h, u, v: (grad_array(u, h) - v, sym_grad_array(v, h)),
        adjoint=lambda reg, h, p, q: (-div_array(p, h), -p - sym_div_array(q, h)),
        balls=lambda reg: ((reg.alpha1, reg.coupling), (reg.alpha0, "frobenius")),
        norms=lambda reg, grid: (
            (grad_norm(grid.dims, grid.spacing), 1.0),  # p = grad u - v
            (0.0, sym_grad_norm_bound(grid.dims, grid.spacing)),  # q = E v
        ),
        affine_injective=True,
    ),
    WaveletL21: _Block(
        dual=("s",),
        apply=lambda reg, h, u: (cpl.haar_forward_array(u, reg.levels),),
        adjoint=lambda reg, h, s: (cpl.haar_inverse_array(s, reg.levels),),
        balls=lambda reg: ((1.0, "frobenius"),),
        norms=lambda reg, grid: ((1.0,),),  # the Haar transform is orthonormal
    ),
    Quadratic: _Block(
        value=lambda reg, h, u: 0.5 * reg.weight * float(np.sum(u * u)),
        prox=_quadratic_prox,
    ),
}


def _block(reg) -> _Block:
    """The table entry of a regularizer: the one place its type is tested."""
    try:
        return _BLOCKS[type(reg)]
    except KeyError:
        raise ValueError(f"unsupported regularizer {type(reg).__name__}") from None


def _balls(reg, h, arrays):
    """Each array, shaped like a dual, as ``(*dims, N, k)`` site blocks (k = 1
    for a scalar dual), with the dual's radius, coupling and kind's weights."""
    block, d = _block(reg), len(h)
    for name, x, (radius, coupling) in zip(block.dual, arrays, block.balls(reg)):
        yield x.reshape(x.shape[: d + 1] + (-1,)), radius, coupling, _KINDS[name].weights(d)


def _reg_value(reg, h, u: np.ndarray, *primal: np.ndarray) -> float:
    """R(u, *primal): each dual's radius times the summed coupling norms of
    its part of K_reg (u, *primal), plus the block's ``value``."""
    block = _block(reg)
    total = 0.0
    for k, radius, coupling, weights in _balls(reg, h, block.apply(reg, h, u, *primal)):
        total += radius * float(pointwise_norms_array(k, coupling, weights).sum())
    return total + block.value(reg, h, u, *primal)


def block_names(problem: ProblemSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Names of K's dual blocks (its rows) and primal blocks (its columns).

    The rows are the regularizer's duals, then ``r1`` .. ``rN`` of the
    channels; the columns are ``u1`` .. ``uN``, the channels of u, then the
    regularizer's primal iterates.  The steps follow this order.
    """
    block = _block(problem.regularizer)
    numbers = range(1, problem.n_channels + 1)
    dual = block.dual + tuple(f"r{i}" for i in numbers)
    return dual, tuple(f"u{i}" for i in numbers) + block.primal


def _iterates(state: SolverState, names, suffix: str = "") -> list[np.ndarray]:
    return [getattr(state, name + suffix) for name in names]


def _iterate_shapes(problem: ProblemSpec) -> dict[str, tuple[int, ...]]:
    """Shape of every iterate the problem's regularizer uses."""
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
    return _reg_value(reg, problem.grid.spacing, u.values, *primal)


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


def _data_adjoint(problem: ProblemSpec, r: list[np.ndarray]) -> np.ndarray:
    """T_i^* r_i for every channel i, stacked into a ``(*dims, N)`` array."""
    tstar = np.empty(problem.grid.dims + (problem.n_channels,))
    for i, c in enumerate(problem.channels):
        tstar[..., i] = c.op.adjoint(r[i])
    return tstar


def estimate_saddle_norm(problem: ProblemSpec) -> np.ndarray:
    """The norms of K's blocks, shaped ``(N, duals + 1, 1 + primals)``.

    K is block diagonal over the channels: K_reg acts on each channel alone,
    and T_i on u_i alone.  ``norms[i]`` holds the block norms of channel i's
    part: its rows are the channel's slices of the regularizer's duals, then
    r_i; its columns u_i, then the channel's slices of the regularizer's
    primal iterates.  The regularizer's blocks come in closed form from its
    table entry.  ||T_i|| is the operator's own :attr:`ForwardOp.norm`,
    inflated by 1% for safety.  Blocks that K does not have are 0.
    """
    block = _block(problem.regularizer)
    reg_rows = list(block.norms(problem.regularizer, problem.grid))
    zeros = [0.0] * len(block.primal)
    return np.array([reg_rows + [[1.01 * c.op.norm] + zeros] for c in problem.channels])


def block_steps(norms: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Block-diagonal PDHG steps from the block norms of :func:`estimate_saddle_norm`,
    ordered as :func:`block_names`.

    The rule of Pock & Chambolle (ICCV 2011) with alpha = 1, at block level:
    a dual block's sigma is 0.99 over the sum of the norms in its row, a
    primal block's tau 0.99 over the sum in its column.  By Cauchy-Schwarz
    and 2ab <= a^2 + b^2, <y, S^(1/2) K T^(1/2) x> is then at most
    sum_ij n_ij (sigma_i |y_i|^2 + tau_j |x_j|^2) / 2 <= 0.99 (|y|^2 + |x|^2) / 2,
    so ||S^(1/2) K T^(1/2)|| <= 0.99.  The test runs on each channel's part
    of K; a regularizer iterate keeps one step for all channels (its dual
    projection couples them), the smallest any channel allows.  Where every
    block has the same norm, these are the scalar steps 0.99 / ||K||.
    """
    rows, cols = norms.sum(axis=2), norms.sum(axis=1)
    sigma = 0.99 / rows.max(axis=0)[:-1], 0.99 / rows[:, -1]
    tau = 0.99 / cols[:, 0], 0.99 / cols.max(axis=0)[1:]
    return tuple(np.concatenate(sigma).tolist()), tuple(np.concatenate(tau).tolist())


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


def _init_state(problem: ProblemSpec, cfg: SolveConfig, norms: np.ndarray) -> SolverState:
    """Zero iterates, or with ``warm_start`` u_i = T_i^* f_i / ||T_i||, and the
    steps of the block norms ``norms``.

    Raises SolverError when a block's row or column of K is zero, which would
    leave its step unbounded.
    """
    with np.errstate(divide="ignore"):
        sigma, tau = block_steps(norms)
    for names, values in zip(block_names(problem), (sigma, tau)):
        for name, step in zip(names, values):
            if not step < np.inf:
                raise SolverError(f"saddle operator block {name} has zero norm")
    iterates = {name: np.zeros(shape) for name, shape in _iterate_shapes(problem).items()}
    if cfg.warm_start:
        columns = [c.op.adjoint(c.data) / norms[i, -1, 0] for i, c in enumerate(problem.channels)]
        iterates["u"] = iterates["ubar"] = _clamp_kl(problem, np.stack(columns, axis=-1))
    r = [np.zeros(c.op.codomain_dim) for c in problem.channels]
    return SolverState(r=r, sigma=sigma, tau=tau, **iterates)


def _require_finite(iteration: int, **arrays: np.ndarray) -> None:
    for name, values in arrays.items():
        if not np.all(np.isfinite(values)):
            raise SolverError(f"non-finite primal iterate {name} at iteration {iteration}")


def pd_step(problem: ProblemSpec, state: SolverState) -> SolverState:
    """One full primal-dual iteration with the state's per-block steps;
    raises SolverError on non-finite state."""
    reg, h = problem.regularizer, problem.grid.spacing
    block = _block(reg)
    n_reg, n = len(block.dual), problem.n_channels
    sigma, tau = state.sigma, state.tau

    r_new = []
    for i, (c, sigma_r) in enumerate(zip(problem.channels, sigma[n_reg:])):
        pred = c.op.apply(state.ubar[..., i])
        if c.kind == "l2":
            r_new.append(prox_l2_dual(state.r[i] + sigma_r * (pred - c.data), sigma_r, c.lam))
        else:
            r_new.append(
                prox_kl_dual(state.r[i] + sigma_r * (pred + c.background), c.data, sigma_r, c.lam)
            )
    tstar = _data_adjoint(problem, r_new)

    iteration = state.iteration + 1
    # k_bar and dual_hat are as large as the duals: dropped once used, for peak heap
    k_bar = block.apply(reg, h, state.ubar, *_iterates(state, block.primal, "bar"))
    dual_hat = [y + s * k for y, k, s in zip(_iterates(state, block.dual), k_bar, sigma)]
    del k_bar
    duals = {  # the dual prox: each dual projected onto its ball
        name: cpl.project_dual_ball_array(*ball).reshape(y.shape)
        for name, y, ball in zip(block.dual, dual_hat, _balls(reg, h, dual_hat))
    }
    del dual_hat
    u_part, *x_parts = block.adjoint(reg, h, *duals.values())
    primal = {}
    for name, x, g, t in zip(block.primal, _iterates(state, block.primal), x_parts, tau[n:]):
        x_new = x - t * g
        primal[name], primal[name + "bar"] = x_new, 2.0 * x_new - x
    _require_finite(iteration, **primal)

    if u_part is not None:
        tstar += u_part
    # each channel's step in place: no full-size array of steps
    u_new = state.u - _per_channel(np.multiply, tstar, tau[:n])
    if block.prox is not None:
        u_new = block.prox(reg, u_new, tau[:n])
    _clamp_kl(problem, u_new)
    ubar_new = 2.0 * u_new - state.u
    _require_finite(iteration, u=u_new, ubar=ubar_new)
    return replace(state, u=u_new, ubar=ubar_new, r=r_new, iteration=iteration, **duals, **primal)


def _norm(x: np.ndarray) -> float:
    return float(np.sqrt(np.sum(x * x)))


def solve(problem: ProblemSpec, cfg: SolveConfig | None = None) -> SolveResult:
    """Run the primal-dual iteration to the relative-change stopping rule.

    Under TGV, first requires every T_i to be injective on affine images
    (:func:`check_affine_injectivity`).
    """
    cfg = cfg or SolveConfig()
    reg, grid = problem.regularizer, problem.grid
    block = _block(reg)
    if block.affine_injective:
        check_affine_injectivity(problem)
    state = _init_state(problem, cfg, estimate_saddle_norm(problem))
    diag = Diagnostics()
    quiet_streak = 0
    converged = False
    tiny = 1e-30
    for _ in range(cfg.max_iters):
        # only u of the old iterates outlives the step, for peak heap
        previous_u = state.u
        state = pd_step(problem, state)
        rel = _norm(state.u - previous_u) / max(_norm(previous_u), tiny)
        if state.iteration % cfg.diag_every == 0:
            data_terms = [_data_term(problem, state.u, i) for i in range(problem.n_channels)]
            reg_value = _reg_value(reg, grid.spacing, state.u, *_iterates(state, block.primal))
            diag.iterations.append(state.iteration)
            diag.energy.append(_energy(problem, state.u, reg_value, data_terms))
            diag.data_terms.append(data_terms)
            diag.reg_value.append(reg_value)
        diag.rel_change.append(rel)
        if rel < cfg.tol:
            quiet_streak += 1
            if quiet_streak >= 10:
                converged = True
                break
        else:
            quiet_streak = 0
    u, v = MultiImage(grid, state.u), None if state.v is None else VectorField(grid, state.v)
    return SolveResult(u=u, v=v, diagnostics=diag, state=state, converged=converged)
