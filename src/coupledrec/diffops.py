"""Discrete gradient / symmetrized gradient with exact negative adjoints.

One difference stencil and its transpose generate all four maps.  Along an
axis of n sites, :func:`_diff` writes ``(a[i+1] - a[i]) / h`` at row
``i + lo`` for the first m = n - lo sites and zero on every other row:
``lo = 0`` is the forward difference with a zero (Neumann) last row, which
the gradient uses; ``lo = 1`` is the interior backward difference, zero on
the first and last row, which the symmetrized gradient uses on the
staggered convention customary for second-order TGV.  Each divergence is
minus :func:`_diff_t`, the stencil's exact transpose, so the adjoint
identities hold to roundoff on any axis length, 1 included.  The ``*_array``
maps take and give component-major values (``tail + (N,) + dims``, see
:mod:`.grids`), so grid axis a is axis ``a - d`` of every array, and each
component of each channel is one contiguous image.

Each map writes each element in as few whole-array passes as its rounding
steps allow.  Counted in ``(N, *dims)`` images written on a d-axis grid of
unit spacing, leaving out the zero boundary rows: :func:`grad_array` takes
d passes, one difference per axis; :func:`div_array` 2d, each term formed
in scratch and then taken from the sum, the first from 0.0;
:func:`sym_grad_array` d + 2d(d - 1), one difference per diagonal entry
and two, a sum and a halving per off-diagonal one; :func:`sym_div_array`
2d^2, d rows of d terms (for d = 2: 2, 4, 6 and 8).  An axis whose
spacing h is not 1 adds one pass per difference, the division by h.  At
h = 1 that pass is skipped, which changes no bit: x / 1.0 is exactly x for
every finite or infinite double, signed zeros included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import MultiImage, SymTensorField, VectorField, l2_norm, sym_index_pairs


def _rows(a: np.ndarray, axis: int) -> np.ndarray:
    """``a`` as ``(A, n, B)``, with its ``axis`` of n sites in the middle; a
    view if ``a`` is C-contiguous, else a copy."""
    return a.reshape(math.prod(a.shape[:axis]), a.shape[axis], -1)


def _row_differences(y: np.ndarray, out: np.ndarray, dst: int, src1: int, src0: int, count: int):
    """``out[:, dst + i] = y[:, src1 + i] - y[:, src0 + i]`` for i < count, on
    ``(A, n, B)`` arrays (``out`` a view of a C-contiguous one), taken as one
    subtraction over the flat span from the first block's row ``dst`` to the
    last block's row ``dst + count - 1``.  The rows in between get junk,
    which the caller overwrites.  Along the last axis the rows are short and
    do not join up, and NumPy then copies every operand through buffers as
    large as the whole of a 64 x 64 x 2 array; on the flat span it does not.

    A junk row pairs sites that are not neighbours, which can overflow or
    meet inf - inf where no true difference does.  So the span raises
    FloatingPointError on either, and then the true rows are taken again on
    their own, to warn just as they would.
    """
    blocks, n, b = out.shape
    start, end = dst * b, ((blocks - 1) * n + dst + count) * b
    flat = y.reshape(-1)
    shift1, shift0 = (src1 - dst) * b, (src0 - dst) * b
    try:
        with np.errstate(over="raise", invalid="raise"):
            np.subtract(
                flat[start + shift1 : end + shift1],
                flat[start + shift0 : end + shift0],
                out=out.reshape(-1)[start:end],
            )
    except FloatingPointError:
        true_rows = out[:, dst : dst + count]
        np.subtract(y[:, src1 : src1 + count], y[:, src0 : src0 + count], out=true_rows)


def _diff(a: np.ndarray, axis: int, h: float, lo: int, out: np.ndarray | None = None):
    """``(a[i+1] - a[i]) / h`` at row ``i + lo`` of ``axis`` for the first n - lo
    sites, zero elsewhere; written into ``out``, C-contiguous, if given.

    With ``lo = 1`` both boundary rows stay zero.  That is what puts gradients
    of affine images in the kernel of the symmetrized gradient: the ``lo = 0``
    gradient of an affine image is constant except for its zero last row, and
    the ``lo = 1`` stencil never reads that row.
    """
    axis %= a.ndim
    m = a.shape[axis] - lo
    if out is None:
        out = np.empty(a.shape)
    rows = _rows(out, axis)
    if m > 1:
        _row_differences(_rows(a, axis), rows, lo, 1, 0, m - 1)
        rows[:, :lo] = 0.0
        rows[:, lo + m - 1 :] = 0.0
        if h != 1.0:
            out /= h
    else:
        out.fill(0.0)
    return out


def _diff_t(y: np.ndarray, axis: int, h: float, lo: int, out: np.ndarray) -> np.ndarray:
    """Exact transpose of :func:`_diff`, written into ``out``: the k = n - lo - 1
    rows w that :func:`_diff` writes, zero-padded at both ends and differenced
    backwards, ``(0 - w[0], w[0] - w[1], ..., w[k-1] - 0, 0, ...) / h``;
    ``out`` is C-contiguous.

    The first row is ``0 - w[0]``, not ``-w[0]``, which differs at w[0] = +0.
    """
    axis %= y.ndim
    k = y.shape[axis] - lo - 1
    rows, src = _rows(out, axis), _rows(y, axis)
    w = src[:, lo : lo + k]
    if k > 0:
        if k > 1:
            _row_differences(src, rows, 1, lo, lo + 1, k - 1)
        np.subtract(0.0, w[:, 0], out=rows[:, 0])
        rows[:, k] = w[:, k - 1]
        rows[:, k + 1 :] = 0.0
        if h != 1.0:
            out /= h
    else:
        out.fill(0.0)
    return out


def _divergence(terms, spacing, lo: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``out = -sum_b _diff_t(terms[b])`` along grid axis b, each term taken
    from zero in axis order and formed in ``scratch``; all three shaped
    ``(N, *dims)``.  The first term is ``0 - t``, not ``-t``, which differs
    at t = +0."""
    d = len(spacing)
    np.subtract(0.0, _diff_t(terms[0], -d, spacing[0], lo, scratch), out=out)
    for b in range(1, d):
        out -= _diff_t(terms[b], b - d, spacing[b], lo, scratch)
    return out


def grad_array(values: np.ndarray, spacing) -> np.ndarray:
    """Forward-difference gradient of ``(N, *dims)`` values, shaped ``(d, N, *dims)``."""
    d = len(spacing)
    out = np.empty((d,) + values.shape)
    for a, h in enumerate(spacing):
        _diff(values, a - d, h, 0, out[a])
    return out


def div_array(values: np.ndarray, spacing) -> np.ndarray:
    """Negative adjoint of :func:`grad_array`, from ``(d, N, *dims)`` to ``(N, *dims)``."""
    out = np.empty(values.shape[1:])
    return _divergence(values, spacing, 0, out, np.empty_like(out))


def sym_grad_array(values: np.ndarray, spacing) -> np.ndarray:
    """Upper triangle of (J + J^T) / 2 for ``(d, N, *dims)`` values, where
    ``J[a][b]`` is the interior backward difference of component a along b.
    Each entry of J is formed when its pair is: J[a][b] in the output's
    entry itself, J[b][a] in one scratch image, which is all this holds
    beyond the output."""
    d = len(spacing)
    pairs = sym_index_pairs(d)
    out = np.empty((len(pairs),) + values.shape[1:])
    scratch = np.empty(values.shape[1:]) if d > 1 else None
    for k, (a, b) in enumerate(pairs):
        entry = _diff(values[a], b - d, spacing[b], 1, out[k])
        if a != b:
            entry += _diff(values[b], a - d, spacing[a], 1, scratch)
            entry *= 0.5
    return out


def _sym_div_into(values: np.ndarray, spacing, rows):
    """Write row a of :func:`sym_div_array` into ``rows[a]`` and yield it, for
    a = 0 .. d-1, each row's terms formed in one scratch image."""
    d = len(spacing)
    full = [[None] * d for _ in range(d)]
    for k, (a, b) in enumerate(sym_index_pairs(d)):
        full[a][b] = full[b][a] = values[k]
    scratch = np.empty(values.shape[1:])
    for a in range(d):
        yield _divergence(full[a], spacing, 1, rows[a], scratch)


def sym_div_rows(values: np.ndarray, spacing):
    """Yield row a of :func:`sym_div_array` of ``(d*(d+1)/2, N, *dims)`` values,
    for a = 0 .. d-1, each in the same ``(N, *dims)`` buffer, which the next
    row overwrites: a caller that consumes each row as it comes holds two
    images, where :func:`sym_div_array` holds d + 1."""
    return _sym_div_into(values, spacing, [np.empty(values.shape[1:])] * len(spacing))


def sym_div_array(values: np.ndarray, spacing) -> np.ndarray:
    """Negative adjoint of :func:`sym_grad_array` w.r.t. the weighted inner
    product: row a of the full symmetric matrix Q gives ``-sum_b J_b^T Q[a][b]``."""
    out = np.empty((len(spacing),) + values.shape[1:])
    for _ in _sym_div_into(values, spacing, out):
        pass
    return out


def _diff_norm(dims, spacing, lo: int) -> float:
    """sqrt of the sum over axes of ||_diff||^2.  Along an axis the stencil is
    a path graph's incidence on m = n - lo sites, so ||_diff||^2 is that
    path Laplacian's largest eigenvalue, 4 sin^2(pi (m-1) / (2m)) / h^2
    (0 when m <= 1)."""
    terms = [
        4 * np.sin(np.pi * (n - lo - 1) / (2 * (n - lo))) ** 2 / h**2
        for n, h in zip(dims, spacing)
        if n - lo > 1
    ]
    return float(np.sqrt(sum(terms)))


def grad_norm(dims, spacing) -> float:
    """||grad_array||, exact: grad^T grad is a sum over axes of Neumann path
    Laplacians on n sites."""
    return _diff_norm(dims, spacing, 0)


def sym_grad_norm_bound(dims, spacing) -> float:
    """An upper bound of ||sym_grad_array|| in the weighted inner product.

    Along an axis of n sites the interior backward difference B is a path
    graph's incidence on n - 1 sites; each weighted off-diagonal entry obeys
    2 ||(x + y) / 2||^2 <= ||x||^2 + ||y||^2, which gives ||E||^2 <= sum ||B_a||^2.
    """
    return _diff_norm(dims, spacing, 1)


def grad(u: MultiImage) -> VectorField:
    """Channel-wise forward-difference gradient."""
    return VectorField.from_cm(u.grid, grad_array(u.cm_values, u.grid.spacing))


def div(p: VectorField) -> MultiImage:
    """Negative adjoint of :func:`grad`: ``<grad u, p> = <u, -div p>``."""
    return MultiImage.from_cm(p.grid, div_array(p.cm_values, p.grid.spacing))


def sym_grad(v: VectorField) -> SymTensorField:
    """Symmetrized backward-difference Jacobian, upper-triangle storage."""
    return SymTensorField.from_cm(v.grid, sym_grad_array(v.cm_values, v.grid.spacing))


def sym_div(q: SymTensorField) -> VectorField:
    """Negative adjoint of :func:`sym_grad` w.r.t. the weighted inner product."""
    return VectorField.from_cm(q.grid, sym_div_array(q.cm_values, q.grid.spacing))


@dataclass
class LinearOp:
    """A linear map on flat float vectors together with its adjoint."""

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    domain_dim: int
    codomain_dim: int


def adjoint_check(op: LinearOp, trials: int = 10, seed: int = 0) -> float:
    """Max relative dot-product test error over random trials."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    tiny = np.finfo(np.float64).tiny
    for _ in range(trials):
        x = rng.standard_normal(op.domain_dim)
        y = rng.standard_normal(op.codomain_dim)
        ax, aty = op.apply(x), op.adjoint(y)
        gap = abs(float(np.sum(ax * y)) - float(np.sum(x * aty)))
        worst = max(worst, gap / (l2_norm(ax) * l2_norm(y) + tiny))
    return worst


# Power iteration stops once an estimate exceeds the previous one by at most
# this much, relative.
_SETTLED = 1e-12


def op_norm_estimate(op: LinearOp, iters: int = 100, seed: int = 0) -> float:
    """Power-iteration estimate of the largest singular value of `op`.

    Runs at most ``iters`` iterations from a random start drawn with
    ``seed``, and stops after the first whose estimate ||op x|| (with
    ||x|| = 1) exceeds the previous one by at most 1e-12 relative; stopping
    at iteration k returns what ``iters=k`` would.  The squared estimate is
    a Rayleigh quotient of op^T op, which never decreases along the
    iteration, so the estimate stays a lower bound of the norm.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.domain_dim)
    nx = l2_norm(x)
    if nx == 0:
        return 0.0
    x /= nx
    est = 0.0
    for _ in range(iters):
        y = op.apply(x)
        ny = l2_norm(y)
        if ny == 0:
            return 0.0
        if ny - est <= _SETTLED * est:
            return ny
        est = ny
        x = op.adjoint(y)
        nx = l2_norm(x)
        if nx == 0:
            return est
        x /= nx
    return est


def grad_linear_op(grid, channels: int) -> LinearOp:
    """grad with its adjoint -div, flattened; note sym-weight-free spaces."""
    shape = (channels,) + grid.dims
    return LinearOp(
        lambda x: grad_array(x.reshape(shape), grid.spacing).reshape(-1),
        lambda y: -div_array(y.reshape((grid.ndim,) + shape), grid.spacing).reshape(-1),
        math.prod(shape),
        math.prod(shape) * grid.ndim,
    )


def sym_grad_linear_op(grid, channels: int) -> LinearOp:
    """sym_grad/-sym_div pair on weighted coordinates.

    The flat vectors use scaled tensor coordinates ``sqrt(w_k) q_k`` so the
    Euclidean dot product matches the weighted field inner product.
    """
    sq = np.sqrt(SymTensorField.weights(grid.ndim)).reshape((-1,) + (1,) * (grid.ndim + 1))
    dom_shape = (grid.ndim, channels) + grid.dims
    cod_shape = (len(sq), channels) + grid.dims
    return LinearOp(
        lambda x: (sym_grad_array(x.reshape(dom_shape), grid.spacing) * sq).reshape(-1),
        lambda y: (-sym_div_array(y.reshape(cod_shape) / sq, grid.spacing)).reshape(-1),
        math.prod(dom_shape),
        math.prod(cod_shape),
    )
