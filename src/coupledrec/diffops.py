"""Discrete gradient / symmetrized gradient with exact negative adjoints.

The gradient uses forward differences with a zero difference at the last
index of each axis (Neumann); the symmetrized gradient uses backward
differences on the staggered convention customary for second-order TGV.
The divergences are derived as exact transposes, so the adjoint identities
hold to roundoff, not discretization order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import MultiImage, SymTensorField, VectorField, sym_index_pairs


def _sl(ndim: int, axis: int, s: slice) -> tuple:
    out = [slice(None)] * ndim
    out[axis] = s
    return tuple(out)


def _forward_diff(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Forward difference, zero at the last index of `axis`."""
    out = np.zeros_like(arr)
    nd = arr.ndim
    out[_sl(nd, axis, slice(None, -1))] = np.diff(arr, axis=axis) / h
    return out


def _forward_diff_negadj(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Negative adjoint of :func:`_forward_diff` (a backward difference)."""
    out = np.empty_like(arr)
    nd = arr.ndim
    n = arr.shape[axis]
    out[_sl(nd, axis, slice(0, 1))] = arr[_sl(nd, axis, slice(0, 1))]
    if n > 1:
        out[_sl(nd, axis, slice(1, -1))] = np.diff(
            arr[_sl(nd, axis, slice(None, -1))], axis=axis
        )
        out[_sl(nd, axis, slice(-1, None))] = -arr[_sl(nd, axis, slice(-2, -1))]
    return out / h


def _backward_diff(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Backward difference on interior rows; zero at the first and last index.

    Dropping both boundary rows is what puts gradients of affine images in
    the kernel of the symmetrized gradient: the forward-difference gradient
    of an affine image is constant except for its padded zero at the last
    index, and this stencil never compares against that padded entry.
    """
    out = np.zeros_like(arr)
    nd = arr.ndim
    if arr.shape[axis] > 2:
        out[_sl(nd, axis, slice(1, -1))] = np.diff(
            arr[_sl(nd, axis, slice(None, -1))], axis=axis
        )
    return out / h


def _backward_diff_adj(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Exact transpose of :func:`_backward_diff`."""
    nd = arr.ndim
    a = arr.copy()
    a[_sl(nd, axis, slice(0, 1))] = 0.0
    a[_sl(nd, axis, slice(-1, None))] = 0.0
    out = a.copy()
    out[_sl(nd, axis, slice(None, -1))] -= a[_sl(nd, axis, slice(1, None))]
    return out / h


def grad_array(values: np.ndarray, spacing) -> np.ndarray:
    """Forward-difference gradient of ``(*dims, N)`` values, shaped ``(*dims, N, d)``."""
    d = len(spacing)
    out = np.empty(values.shape + (d,))
    for a in range(d):
        out[..., a] = _forward_diff(values, axis=a, h=spacing[a])
    return out


def div_array(values: np.ndarray, spacing) -> np.ndarray:
    """Negative adjoint of :func:`grad_array`, from ``(*dims, N, d)`` to ``(*dims, N)``."""
    out = np.zeros(values.shape[:-1])
    for a in range(len(spacing)):
        out -= _forward_diff_negadj(values[..., a], axis=a, h=spacing[a])
    # out currently holds +adjoint; div is its negation
    return -out


def sym_grad_array(values: np.ndarray, spacing) -> np.ndarray:
    """Symmetrized backward-difference Jacobian of ``(*dims, N, d)`` values."""
    pairs = sym_index_pairs(len(spacing))
    h = spacing
    out = np.empty(values.shape[:-1] + (len(pairs),))
    for k, (a, b) in enumerate(pairs):
        if a == b:
            out[..., k] = _backward_diff(values[..., a], axis=a, h=h[a])
        else:
            out[..., k] = 0.5 * (
                _backward_diff(values[..., a], axis=b, h=h[b])
                + _backward_diff(values[..., b], axis=a, h=h[a])
            )
    return out


def sym_div_array(values: np.ndarray, spacing) -> np.ndarray:
    """Negative adjoint of :func:`sym_grad_array` w.r.t. the weighted inner product."""
    d = len(spacing)
    h = spacing
    key = {(min(a, b), max(a, b)): k for k, (a, b) in enumerate(sym_index_pairs(d))}
    out = np.zeros(values.shape[:-1] + (d,))
    for a in range(d):
        acc = np.zeros(values.shape[:-1])
        for b in range(d):
            acc += _backward_diff_adj(values[..., key[(min(a, b), max(a, b))]], axis=b, h=h[b])
        out[..., a] = -acc
    return out


def grad_norm(dims, spacing) -> float:
    """||grad_array||, exact: grad^T grad is a sum over axes of Neumann path
    Laplacians, the largest eigenvalue of which is 4 sin^2(pi (n-1) / (2n)) / h^2."""
    terms = [4 * np.sin(np.pi * (n - 1) / (2 * n)) ** 2 / h**2 for n, h in zip(dims, spacing)]
    return float(np.sqrt(sum(terms)))


def sym_grad_norm_bound(dims, spacing) -> float:
    """An upper bound of ||sym_grad_array|| in the weighted inner product.

    Along an axis of n sites the interior backward difference B is a path
    graph's incidence on n - 1 sites, so ||B||^2 = 4 sin^2(pi (n-2) / (2(n-1)))
    / h^2 (0 when n <= 2); each weighted off-diagonal entry obeys
    2 ||(x + y) / 2||^2 <= ||x||^2 + ||y||^2, which gives ||E||^2 <= sum ||B_a||^2.
    """
    terms = [
        4 * np.sin(np.pi * (n - 2) / (2 * (n - 1))) ** 2 / h**2
        for n, h in zip(dims, spacing)
        if n > 2
    ]
    return float(np.sqrt(sum(terms)))


def grad(u: MultiImage) -> VectorField:
    """Channel-wise forward-difference gradient."""
    return VectorField(u.grid, grad_array(u.values, u.grid.spacing))


def div(p: VectorField) -> MultiImage:
    """Negative adjoint of :func:`grad`: ``<grad u, p> = <u, -div p>``."""
    return MultiImage(p.grid, div_array(p.values, p.grid.spacing))


def sym_grad(v: VectorField) -> SymTensorField:
    """Symmetrized backward-difference Jacobian, upper-triangle storage."""
    return SymTensorField(v.grid, sym_grad_array(v.values, v.grid.spacing))


def sym_div(q: SymTensorField) -> VectorField:
    """Negative adjoint of :func:`sym_grad` w.r.t. the weighted inner product."""
    return VectorField(q.grid, sym_div_array(q.values, q.grid.spacing))


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
        ax = op.apply(x)
        aty = op.adjoint(y)
        lhs = float(np.dot(ax, y))
        rhs = float(np.dot(x, aty))
        denom = float(np.linalg.norm(ax) * np.linalg.norm(y)) + tiny
        worst = max(worst, abs(lhs - rhs) / denom)
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
    nx = np.linalg.norm(x)
    if nx == 0:
        return 0.0
    x /= nx
    est = 0.0
    for _ in range(iters):
        y = op.apply(x)
        ny = np.linalg.norm(y)
        if ny == 0:
            return 0.0
        if ny - est <= _SETTLED * est:
            return float(ny)
        est = ny
        x = op.adjoint(y)
        nx = np.linalg.norm(x)
        if nx == 0:
            return float(est)
        x /= nx
    return float(est)


def grad_linear_op(grid, channels: int) -> LinearOp:
    """grad with its adjoint -div, flattened; note sym-weight-free spaces."""
    shape = grid.dims + (channels,)
    return LinearOp(
        lambda x: grad_array(x.reshape(shape), grid.spacing).reshape(-1),
        lambda y: -div_array(y.reshape(shape + (grid.ndim,)), grid.spacing).reshape(-1),
        int(np.prod(shape)),
        int(np.prod(shape)) * grid.ndim,
    )


def sym_grad_linear_op(grid, channels: int) -> LinearOp:
    """sym_grad/-sym_div pair on weighted coordinates.

    The flat vectors use scaled tensor coordinates ``sqrt(w_k) q_k`` so the
    Euclidean dot product matches the weighted field inner product.
    """
    sq = np.sqrt(SymTensorField.weights(grid.ndim))
    dom_shape = grid.dims + (channels, grid.ndim)
    cod_shape = grid.dims + (channels, len(sq))
    return LinearOp(
        lambda x: (sym_grad_array(x.reshape(dom_shape), grid.spacing) * sq).reshape(-1),
        lambda y: (-sym_div_array(y.reshape(cod_shape) / sq, grid.spacing)).reshape(-1),
        int(np.prod(dom_shape)),
        int(np.prod(cod_shape)),
    )
