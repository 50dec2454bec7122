"""Pointwise coupling machinery: dual-ball projections (closed-form
singular-value clips on 2-D grids), the orthonormal Haar transform, and the
group-l2 ball projection.

The dual prox of the coupled l1 terms is a pointwise projection onto the
dual-norm ball: plain rescaling for Frobenius coupling, a singular-value
clip (spectral-ball projection) for nuclear coupling.
"""

from __future__ import annotations

import numpy as np

from .grids import (
    MultiImage,
    SymTensorField,
    VectorField,
    sym_weights,
)


def _clip_singular_values(values: np.ndarray, alpha: float) -> np.ndarray:
    """Spectral-ball projection of the d x N site blocks of (..., N, d) values.

    For d = 2 the clip is M @ B with M = f2 I + (f1 - f2) e1 e1^T and
    f_k = min(1, alpha / s_k), where s_k^2 and e1 come in closed form from
    the Gram matrix B B^T = [[a, b], [b, c]].  The small s_2 loses digits
    when B is nearly rank-deficient, which does no harm: f2 = 1 as soon as
    s_2 <= alpha.  Other d use a batched SVD.
    """
    if values.shape[-1] != 2:
        u, s, vt = np.linalg.svd(np.swapaxes(values, -1, -2), full_matrices=False)
        np.minimum(s, alpha, out=s)
        return np.einsum("...ik,...k,...kn->...ni", u, s, vt)
    x, y = values[..., 0], values[..., 1]
    a = np.einsum("...n,...n->...", x, x)
    b = np.einsum("...n,...n->...", x, y)
    c = np.einsum("...n,...n->...", y, y)
    h = 0.5 * (a - c)
    r = np.hypot(h, b)
    mid = 0.5 * (a + c)
    f1 = alpha / np.maximum(np.sqrt(mid + r), alpha)
    f2 = alpha / np.maximum(np.sqrt(np.maximum(mid - r, 0.0)), alpha)
    # e1 e1^T = [[1 + h/r, b/r], [b/r, 1 - h/r]] / 2; at r = 0, f1 = f2 and M = f I
    g = 0.5 * (f1 - f2)
    hr = np.divide(h, r, out=np.zeros_like(r), where=r > 0)
    br = np.divide(b, r, out=np.zeros_like(r), where=r > 0)
    m00 = (f2 + g * (1.0 + hr))[..., None]
    m11 = (f2 + g * (1.0 - hr))[..., None]
    m01 = (g * br)[..., None]
    return np.stack([m00 * x + m01 * y, m01 * x + m11 * y], axis=-1)


def project_dual_ball(z, alpha: float, coupling: str = "frobenius"):
    """Pointwise projection onto the coupling dual ball of radius alpha.

    Frobenius coupling: scale each site block to pointwise norm <= alpha.
    Nuclear coupling (vector fields only): clip singular values at alpha.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if isinstance(z, SymTensorField):
        if coupling != "frobenius":
            raise ValueError("symmetric tensor fields only support Frobenius coupling")
        w = sym_weights(z.grid.ndim)
        norms = np.sqrt(np.sum(z.values**2 * w, axis=(-2, -1), keepdims=True))
        return z.with_values(z.values / np.maximum(1.0, norms / alpha))
    if not isinstance(z, VectorField):
        raise ValueError("expected a VectorField or SymTensorField")
    if coupling == "frobenius":
        norms = np.sqrt(np.sum(z.values**2, axis=(-2, -1), keepdims=True))
        return z.with_values(z.values / np.maximum(1.0, norms / alpha))
    if coupling == "nuclear":
        return z.with_values(_clip_singular_values(z.values, alpha))
    raise ValueError(f"unknown coupling {coupling!r}")


def _check_levels(dims, levels: int) -> None:
    if levels < 1:
        raise ValueError("levels must be >= 1")
    for n in dims:
        if n % (1 << levels):
            raise ValueError(f"dims {dims} not divisible by 2^{levels}")


def _haar1d_fwd(a: np.ndarray, axis: int) -> np.ndarray:
    a = np.moveaxis(a, axis, 0)
    lo = (a[0::2] + a[1::2]) / np.sqrt(2.0)
    hi = (a[0::2] - a[1::2]) / np.sqrt(2.0)
    return np.moveaxis(np.concatenate([lo, hi], axis=0), 0, axis)


def _haar1d_inv(a: np.ndarray, axis: int) -> np.ndarray:
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0] // 2
    lo, hi = a[:n], a[n:]
    out = np.empty_like(a)
    out[0::2] = (lo + hi) / np.sqrt(2.0)
    out[1::2] = (lo - hi) / np.sqrt(2.0)
    return np.moveaxis(out, 0, axis)


def haar_forward(u: MultiImage, levels: int) -> MultiImage:
    """Orthonormal multi-level Haar transform, channel-wise, Mallat layout."""
    _check_levels(u.grid.dims, levels)
    nd = u.grid.ndim
    vals = u.values.copy()
    sizes = list(u.grid.dims)
    for _ in range(levels):
        region = tuple(slice(0, s) for s in sizes)
        block = vals[region]
        for ax in range(nd):
            block = _haar1d_fwd(block, ax)
        vals[region] = block
        sizes = [s // 2 for s in sizes]
    return u.with_values(vals)


def haar_inverse(coeffs: MultiImage, levels: int) -> MultiImage:
    """Inverse (= adjoint) of :func:`haar_forward`."""
    _check_levels(coeffs.grid.dims, levels)
    nd = coeffs.grid.ndim
    vals = coeffs.values.copy()
    sizes = [n >> levels for n in coeffs.grid.dims]
    for _ in range(levels):
        sizes = [2 * s for s in sizes]
        region = tuple(slice(0, s) for s in sizes)
        block = vals[region]
        for ax in range(nd):
            block = _haar1d_inv(block, ax)
        vals[region] = block
    return coeffs.with_values(vals)


def project_group_l2ball(shat: MultiImage, alpha: float) -> MultiImage:
    """Per coefficient index, scale the cross-channel vector to norm <= alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    norms = np.sqrt(np.sum(shat.values**2, axis=-1, keepdims=True))
    return shat.with_values(shat.values / np.maximum(1.0, norms / alpha))


def group_l21_norm(coeffs: MultiImage) -> float:
    """Sum over coefficient indices of the cross-channel 2-norm."""
    return float(np.sum(np.sqrt(np.sum(coeffs.values**2, axis=-1))))
