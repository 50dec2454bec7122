"""Primal-dual solver for the coupled saddle-point problem.

One iteration over K = [K_reg; T_1; ...; T_N] steps the primal variables
first and extrapolates the duals (Chambolle & Pock, JMIV 2011, with the
roles of x and y swapped):

    x+ = prox_G(x - T g),   y+ = prox_F*(y + S K x+),   g+ = K^T (2 y+ - y),

where G holds the regularizer's part outside K_reg (Quadratic's weight) and
the KL channels' u >= 0, F* the regularizer's dual balls and the
discrepancy conjugates, and g = K^T ybar is carried from the previous step
(K^T y = 0 at the start).  K is applied once per iteration, at the iterate
x+ that a diagnostics row reports, so the row's data terms and regularizer
value come from that same product.  Every block of K has its own step:
each dual block (the regularizer's duals, and r_i of each channel) and each
primal block (each channel u_i of u, and the regularizer's primal iterates)
is stepped by 0.99 over the sum of the norms of K's blocks in its row or
column (:func:`block_steps`); the bound ||S^(1/2) K T^(1/2)|| <= 0.99 does
not depend on which variable steps first.  The regularizer's block norms
are closed forms; each ||T_i|| is its operator's :attr:`ForwardOp.norm`,
inflated by 1%.  Each regularizer is described once, in ``_BLOCKS``, with
one ball per dual: R sums each radius alpha_j times the pointwise coupling
norms of the dual's part of K_reg x, and the dual's prox projects onto the
alpha_j-ball of the dual norm.  The state holds K's blocks in the order of
:func:`block_names`, as plain float64 arrays in the kernels' component-major
layout (``tail + (N,) + dims``, see :mod:`.grids`), advanced in place; the
public fields are converted at the boundary.

Optimality residuals of one step x, y -> x+, y+ in this order:

* dual: D = S^-1 (y - y+), an element of dF*(y+) - K x+, read per entry
  y[j] of the state with sigma[j]; it costs no product with K.
* primal: P = T^-1 (x - x+) - g + K^T y+, an element of dG(x+) + K^T y+,
  read per entry of x and g; it costs one K^T, at y+, on the iterations
  that check it.

``ForwardOp.norm`` is computed once per operator, so solves of problems that
share their operators and differ only in data and weights power-iterate each
operator once between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import coupling as cpl
from .diffops import (
    div_array,
    grad_array,
    grad_norm,
    sym_div_rows,
    sym_grad_array,
    sym_grad_norm_bound,
)
from .discrepancy import eval_kl, eval_l2sq, prox_kl_dual, prox_l2_dual
from .grids import (
    MultiImage,
    SymTensorField,
    VectorField,
    l2_norm,
    pointwise_norms_array,
    site_major,
)
from .problem import ChannelSpec, ProblemSpec, Quadratic, TGV2, WaveletL21

# Unused here, but bench/tracing.py rebinds these names on this module.
from .diffops import div, grad, op_norm_estimate, sym_div, sym_grad  # noqa: F401
from .grids import inner_product, pointwise_norms  # noqa: F401


class SolverError(RuntimeError):
    """Numerical failure inside the iteration (non-finite state, divergence)."""


@dataclass
class SolverState:
    """K's blocks as float64 arrays in the order of :func:`block_names`, and the steps.

    ``x`` is K's column of primal iterates: u, whose channels are the blocks
    u1 .. uN, then the regularizer's primal iterates; ``tau`` steps them, u1
    .. uN first.  ``g`` holds K^T ybar at each entry of ``x``, where ybar =
    2 y+ - y are the last step's extrapolated duals (K^T y at the start).
    ``y`` is K's row of duals, the regularizer's duals and then r1 .. rN, so
    ``sigma[j]`` steps ``y[j]``.  Shapes as in ``_iterate_shapes``:
    component-major, ``tail + (N,) + dims``, unlike the site-major public
    fields, so each channel of each component is one C-contiguous image.
    :func:`pd_step` writes the new ``x`` over ``g``, so no entry of ``g`` may
    share memory with any other array; it writes the new ``g`` partly over
    its own extrapolated duals, so an iteration holds these lists once each,
    K x+ (one ``y``'s worth) and a few images of scratch.
    """

    x: list[np.ndarray]
    g: list[np.ndarray]
    y: list[np.ndarray]
    sigma: tuple[float, ...]
    tau: tuple[float, ...]
    iteration: int = 0


@dataclass
class Diagnostics:
    """Per-iteration solve history.

    ``iterations`` names the iteration of each recorded row of ``energy``,
    ``data_terms`` and ``reg_value``; ``rel_change`` has one entry for every
    iteration.  Rows are recorded only on request (``SolveConfig.diag_every``
    of at least 1); by default the row lists stay empty.
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
    # record energy/data/reg every k-th iteration; 0 records no rows, so a
    # solve evaluates no data term or R that nothing reads
    diag_every: int = 0

    def __post_init__(self):
        if not 0 <= self.tol < np.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")
        for name, least in (("max_iters", 1), ("diag_every", 0)):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {count!r}")


@dataclass
class SolveResult:
    """A solve's outcome.  ``u`` and ``v`` are site-major fields, views of the
    final iterates; ``state`` holds those iterates in the solver's
    component-major layout (see :class:`SolverState`)."""

    u: MultiImage
    v: VectorField | None
    diagnostics: Diagnostics
    state: SolverState
    converged: bool


# --- the regularizer table ---------------------------------------------------


# The field kind of each regularizer iterate: the iterate is shaped
# kind.tail(d) + (N, *dims), component-major, so that each component of each
# channel is one contiguous image (the kind's own fields are site-major,
# (*dims, N) + kind.tail(d)); its inner product is weighted by kind.weights(d).
_KINDS = {"v": VectorField, "p": VectorField, "q": SymTensorField, "s": MultiImage}


@dataclass(frozen=True)
class _Block:
    """A regularizer's part of the saddle problem; the defaults have no K_reg.

    ``primal`` names its iterates besides u, ``dual`` its dual iterates (both
    keys of ``_KINDS``).  The functions take the regularizer, the grid spacing
    h, then arrays: ``apply`` (K_reg, one array per dual) and ``value`` (the
    part of R outside K_reg) take (u, *primal); ``adjoint_over`` (K_reg^T: the
    u part, None if K_reg ignores u, then one per primal) takes the duals, and
    may write over them and return them, for :func:`pd_step` to pass it the
    dead extrapolated duals.
    ``balls`` takes the regularizer and gives each dual's ball, a (radius,
    coupling) pair: the dual prox projects onto it, in the weights of the
    dual's field kind, and R sums radius times the coupling norm of K_reg's
    output.  ``norms`` takes the regularizer and the grid and gives, for each
    dual, the norm of K_reg's block from one channel of u, then from each
    primal, in the weighted inner products (an upper bound where no closed
    form is exact).
    """

    primal: tuple[str, ...] = ()
    dual: tuple[str, ...] = ()
    apply: Callable = lambda reg, h, u: ()
    adjoint_over: Callable = lambda reg, h: (None,)
    balls: Callable = lambda reg: ()
    norms: Callable = lambda reg, grid: ()
    value: Callable = lambda reg, h, u, *primal: 0.0
    prox: Callable | None = None  # (reg, u, u's (N, 1, ..., 1) steps) -> prox of u, in place
    affine_injective: bool = False  # every T_i must be injective on affine images


def _quadratic_prox(reg, u, tau):
    return np.divide(u, 1.0 + tau * reg.weight, out=u)


def _tgv_apply(reg, h, u, v):
    """K_reg (u, v) = (grad u - v, E v)."""
    p = grad_array(u, h)
    return np.subtract(p, v, out=p), sym_grad_array(v, h)


def _tgv_adjoint_over(reg, h, p, q):
    """K_reg^T (p, q) = (-div p, -p - sym_div q), the second written over p, one
    row of sym_div q at a time."""
    gu = div_array(p, h)
    for pa, row in zip(p, sym_div_rows(q, h)):
        np.subtract(np.negative(pa, out=pa), row, out=pa)
    return np.negative(gu, out=gu), p


_BLOCKS = {
    TGV2: _Block(
        primal=("v",),
        dual=("p", "q"),
        apply=_tgv_apply,
        adjoint_over=_tgv_adjoint_over,
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
        adjoint_over=lambda reg, h, s: (cpl._haar_levels(s, reg.levels, inverse=True),),
        balls=lambda reg: ((1.0, "frobenius"),),
        norms=lambda reg, grid: ((1.0,),),  # the Haar transform is orthonormal
    ),
    Quadratic: _Block(
        value=lambda reg, h, u: 0.5 * reg.weight * _site_major_sum_squares(u),
        prox=_quadratic_prox,
    ),
}


def _site_major_sum_squares(u: np.ndarray) -> float:
    """Sum of the squares of ``(N, *dims)`` values, added in the site-major
    order of their field, so that the sum does not depend on how ``u`` is
    laid out in memory."""
    u = np.ascontiguousarray(site_major(u, u.ndim - 1))
    return float(np.sum(u * u))


def _block(reg) -> _Block:
    """The table entry of a regularizer: the one place its type is tested."""
    try:
        return _BLOCKS[type(reg)]
    except KeyError:
        raise ValueError(f"unsupported regularizer {type(reg).__name__}") from None


def _balls(reg, h, arrays):
    """Each array, shaped like a dual, as ``(k, N, *dims)`` site blocks (k = 1
    for a scalar dual), with the dual's radius, coupling and kind's weights."""
    block, d = _block(reg), len(h)
    for name, x, (radius, coupling) in zip(block.dual, arrays, block.balls(reg)):
        yield x.reshape((-1,) + x.shape[-d - 1 :]), radius, coupling, _KINDS[name].weights(d)


def _reg_value(reg, h, ks, u: np.ndarray, *primal: np.ndarray) -> float:
    """R(u, *primal) from ks = K_reg (u, *primal): each dual's radius times
    the summed coupling norms of its part of ks, plus the block's ``value``."""
    total = 0.0
    for k, radius, coupling, weights in _balls(reg, h, ks):
        total += radius * float(pointwise_norms_array(k, coupling, weights).sum())
    return total + _block(reg).value(reg, h, u, *primal)


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


def _iterate_shapes(problem: ProblemSpec) -> tuple[list, list]:
    """Shapes of the primal and the dual iterates, component-major, in the
    order of :func:`block_names`: u and the regularizer's primal iterates;
    the regularizer's duals and each channel's r_i."""
    grid = problem.grid
    block = _block(problem.regularizer)
    base = (problem.n_channels,) + grid.dims
    x = [base] + [_KINDS[name].tail(grid.ndim) + base for name in block.primal]
    y = [_KINDS[name].tail(grid.ndim) + base for name in block.dual]
    return x, y + [(c.op.codomain_dim,) for c in problem.channels]


def _data_term(c: ChannelSpec, pred: np.ndarray) -> float:
    """D_i(pred, f_i) without the lambda weight, from pred = T_i u_i."""
    if c.kind == "l2":
        return eval_l2sq(pred, c.data)
    return eval_kl(pred + c.background if c.has_background else pred, c.data)


def channel_data_term(problem: ProblemSpec, u: MultiImage, i: int) -> float:
    """D_i(T_i u_i, f_i) without the lambda weight."""
    c = problem.channels[i]
    return _data_term(c, c.op.apply(u.values[..., i]))


def regularizer_value(problem: ProblemSpec, u: MultiImage, v: VectorField | None) -> float:
    reg, h = problem.regularizer, problem.grid.spacing
    block = _block(reg)
    if block.primal and v is None:
        raise ValueError(f"{type(reg).__name__} energy needs the balancing field v")
    x = (u.cm_values, v.cm_values) if block.primal else (u.cm_values,)
    return _reg_value(reg, h, block.apply(reg, h, *x), *x)


def _energy(problem: ProblemSpec, reg: float, data_terms: list[float]) -> float:
    """Objective from its parts: reg, then + lam_i * D_i; +inf once not finite."""
    total = reg
    for c, d in zip(problem.channels, data_terms):
        total += c.lam * d
        if not np.isfinite(total):
            return np.inf
    return total


def primal_energy(problem: ProblemSpec, u: MultiImage, v: VectorField | None = None) -> float:
    """Full objective; +inf when a KL channel is infeasible."""
    if any(np.any(u.values[..., i] < 0) for i in problem.kl_channels):
        return np.inf
    data_terms = [channel_data_term(problem, u, i) for i in range(problem.n_channels)]
    return _energy(problem, regularizer_value(problem, u, v), data_terms)


def _data_adjoint(problem: ProblemSpec, r: list, out: np.ndarray | None = None) -> np.ndarray:
    """T_i^* r_i for every channel i, added into channel i of the ``(N, *dims)``
    array ``out`` (IEEE addition commutes, so out[i] + T_i^* r_i is the same
    either way round), or without ``out`` stacked into a new one."""
    if out is None:
        out = np.empty((problem.n_channels,) + problem.grid.dims)
        for i, (c, ri) in enumerate(zip(problem.channels, r)):
            out[i] = c.op.adjoint(ri)
        return out
    for i, (c, ri) in enumerate(zip(problem.channels, r)):
        out[i] += c.op.adjoint(ri)
    return out


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
    """Require every T_i to be injective on per-channel affine images.

    The affine images are spanned by the constant image and the coordinate
    of each axis with more than one site (on a single site the coordinate
    is constant).
    """
    grid = problem.grid
    coords = np.meshgrid(
        *[np.arange(nx, dtype=np.float64) * h for nx, h in zip(grid.dims, grid.spacing)],
        indexing="ij",
    )
    basis = [np.ones(grid.dims)] + [c for c, nx in zip(coords, grid.dims) if nx > 1]
    for i, c in enumerate(problem.channels):
        cols = np.stack([c.op.apply(b / l2_norm(b)) for b in basis], axis=1)
        smin = np.linalg.svd(cols, compute_uv=False)[-1]
        if smin <= tol:
            raise SolverError(
                f"channel {i}: forward operator nearly vanishes on an affine image "
                f"(smallest singular value {smin:.2e}); TGV mode needs affine injectivity"
            )


def _init_state(problem: ProblemSpec, norms: np.ndarray) -> SolverState:
    """Zero iterates, K's blocks in the order of :func:`block_names`, and the
    steps of the block norms ``norms``.  The duals start at zero, so K^T y,
    the state's ``g``, is zero too.

    Raises SolverError when a block's row or column of K is zero, which would
    leave its step unbounded.
    """
    with np.errstate(divide="ignore"):
        sigma, tau = block_steps(norms)
    for names, values in zip(block_names(problem), (sigma, tau)):
        for name, step in zip(names, values):
            if not step < np.inf:
                raise SolverError(f"saddle operator block {name} has zero norm")
    x_shapes, y_shapes = _iterate_shapes(problem)
    return SolverState(
        x=[np.zeros(shape) for shape in x_shapes],
        g=[np.zeros(shape) for shape in x_shapes],
        y=[np.zeros(shape) for shape in y_shapes],
        sigma=sigma,
        tau=tau,
    )


def _require_finite(iteration: int, name: str, arrays: list[np.ndarray]) -> None:
    for j, values in enumerate(arrays):
        if not np.all(np.isfinite(values)):
            raise SolverError(f"non-finite iterate {name}[{j}] at iteration {iteration}")


def pd_step(problem: ProblemSpec, state: SolverState, diag: Diagnostics | None = None) -> None:
    """Advance ``state`` in place by one primal-dual iteration with its per-block steps.

    One primal step runs down K's column, ``x+ = prox_G(x - T g)`` written
    over g; u's channel steps are one ``(N, 1, ..., 1)`` array.  Then
    z = K x+ is formed once, K_reg's outputs and then each T_i u+_i, and one
    sigma-step runs down K's row: each buffer of z holds z, then y + S z
    (after the channel's data shift; a KL channel's background is added only
    where it is nonzero).  The duals are proxed one block at a time: the
    block's y+ is a new array, its buffer of z takes 2 y+ - y, and its old y
    is dropped at once.  K^T of these extrapolated duals is the new g, and
    consumes them: K_reg^T is written over the regularizer's
    (``_Block.adjoint_over``; under TGV, g's v part is -p - sym_div q over
    p's buffer), which are released before each T_i^* is added into channel
    i of K_reg^T's u part (:func:`_data_adjoint`).

    So an iteration holds x (over the old g), y, z (one y's worth) and the
    stop rule's old u, and on top at most one new dual block with its prox's
    scratch, or K_reg^T's new u part with two images of scratch.  With
    ``diag``, a row for the new iterate is appended to it from the same z:
    each data term from T_i u+_i, R from K_reg x+, so the row applies no
    operator.  Raises SolverError on a non-finite primal iterate or g; the
    state is then partly advanced and is not to be reused.
    """
    reg, h = problem.regularizer, problem.grid.spacing
    block = _block(reg)
    n_reg, n = len(block.dual), problem.n_channels
    sigma, tau = state.sigma, state.tau
    state.iteration += 1

    # the primal step over g, and the old u stays intact for the caller's stop rule
    taus = [np.reshape(tau[:n], (n,) + (1,) * problem.grid.ndim), *tau[n:]]
    x = [
        np.subtract(xj, np.multiply(g, t, out=g), out=g)
        for xj, g, t in zip(state.x, state.g, taus)
    ]
    u = x[0]
    if block.prox is not None:
        block.prox(reg, u, taus[0])
    for i in problem.kl_channels:
        np.maximum(u[i], 0.0, out=u[i])
    state.x = x
    _require_finite(state.iteration, "x", x)

    # z = K x+; ForwardOp.apply returns a new array, so the step may overwrite it
    zs = list(block.apply(reg, h, *x))
    zs += [c.op.apply(u[i]) for i, c in enumerate(problem.channels)]
    if diag is not None:
        reg_value = _reg_value(reg, h, zs[:n_reg], *x)
        data_terms = [_data_term(c, z) for c, z in zip(problem.channels, zs[n_reg:])]
    for c, z in zip(problem.channels, zs[n_reg:]):
        if c.kind == "l2":
            z -= c.data
        elif c.has_background:
            z += c.background
    for z, y, s in zip(zs, state.y, sigma):
        z *= s
        z += y
    del y  # else the last old dual outlives its y_old entry, through K^T

    # each dual's prox, one block at a time (the regularizer's balls, then the
    # discrepancies' conjugates), into a new list; each old y is dropped as
    # soon as z holds 2 y+ - y
    y_old, state.y = list(state.y), []
    balls = _balls(reg, h, zs[:n_reg])
    for j, z in enumerate(zs):
        if j < n_reg:
            y_plus = cpl.project_dual_ball_array(*next(balls)).reshape(z.shape)
        elif (c := problem.channels[j - n_reg]).kind == "l2":
            y_plus = prox_l2_dual(z, sigma[j], c.lam)
        else:
            y_plus = prox_kl_dual(z, c.data, sigma[j], c.lam)
        np.subtract(np.multiply(y_plus, 2.0, out=z), y_old[j], out=z)
        y_old[j] = None
        state.y.append(y_plus)
    del balls, y_plus

    # K^T over the dead extrapolated duals: K_reg^T's, released before T_i^*'s
    u_part, *x_parts = block.adjoint_over(reg, h, *zs[:n_reg])
    del zs[:n_reg]
    state.g = [_data_adjoint(problem, zs, u_part), *x_parts]
    del zs
    _require_finite(state.iteration, "g", state.g)

    if diag is not None:
        diag.iterations.append(state.iteration)
        diag.energy.append(_energy(problem, reg_value, data_terms))
        diag.data_terms.append(data_terms)
        diag.reg_value.append(reg_value)


def solve(problem: ProblemSpec, cfg: SolveConfig | None = None) -> SolveResult:
    """Run the primal-dual iteration to the relative-change stopping rule.

    Under TGV, first requires every T_i to be injective on affine images
    (:func:`check_affine_injectivity`).
    """
    cfg = cfg or SolveConfig()
    grid = problem.grid
    if _block(problem.regularizer).affine_injective:
        check_affine_injectivity(problem)
    state = _init_state(problem, estimate_saddle_norm(problem))
    diag = Diagnostics()
    quiet_streak = 0
    converged = False
    tiny = 1e-30
    size = l2_norm(state.x[0], np.empty(state.x[0].shape))
    for _ in range(cfg.max_iters):
        # pd_step writes u+ to a new array, so the old u is left to the stop
        # rule: it holds the change and its squares, then the squares of u+,
        # whose norm the next iteration divides by
        previous_u = state.x[0]
        record = cfg.diag_every > 0 and (state.iteration + 1) % cfg.diag_every == 0
        pd_step(problem, state, diag if record else None)
        u = state.x[0]
        rel = l2_norm(np.subtract(u, previous_u, out=previous_u), previous_u) / max(size, tiny)
        size = l2_norm(u, previous_u)
        diag.rel_change.append(rel)
        if rel < cfg.tol:
            quiet_streak += 1
            if quiet_streak >= 10:
                converged = True
                break
        else:
            quiet_streak = 0
    u, *primal = state.x
    u = MultiImage.from_cm(grid, u)
    v = VectorField.from_cm(grid, *primal) if primal else None
    return SolveResult(u=u, v=v, diagnostics=diag, state=state, converged=converged)
