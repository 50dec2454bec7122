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
    block_sum_squares,
    pointwise_norms_array,
)


def _gram_2x2(values: np.ndarray):
    """Rows x, y of the 2 x N site blocks B of (..., N, 2) values, and h, b, r,
    mid of B B^T = [[a, b], [b, c]]: its eigenvalues are mid +- r = hypot(h, b).

    The entries are summed one channel at a time, as :func:`block_sum_squares`
    does, and bitwise equal to NumPy's reductions over N for N <= 7."""
    x, y = values[..., 0], values[..., 1]
    a, c = block_sum_squares(x[..., None]), block_sum_squares(y[..., None])
    b = x[..., 0] * y[..., 0]
    for n in range(1, x.shape[-1]):
        b += x[..., n] * y[..., n]
    h = 0.5 * (a - c)
    return x, y, h, b, np.hypot(h, b), 0.5 * (a + c)


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
    x, y, h, b, r, mid = _gram_2x2(values)
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


def project_dual_ball_array(values: np.ndarray, alpha: float, coupling="frobenius", weights=None):
    """Project each (N, k) site block of (..., N, k) values onto the dual ball."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if coupling == "frobenius":
        norms = pointwise_norms_array(values, weights=weights)
        return values / np.maximum(1.0, norms.reshape(values.shape[:-2] + (1, 1)) / alpha)
    if coupling == "nuclear":
        return _clip_singular_values(values, alpha)
    raise ValueError(f"unknown coupling {coupling!r}")


def project_dual_ball(z, alpha: float, coupling: str = "frobenius"):
    """Pointwise projection onto the coupling dual ball of radius alpha.

    Frobenius coupling: scale each site block to pointwise norm <= alpha.
    Nuclear coupling (vector fields only): clip singular values at alpha.
    """
    if not isinstance(z, (VectorField, SymTensorField)):
        raise ValueError("expected a VectorField or SymTensorField")
    weights = z.weights(z.grid.ndim)
    if weights is not None and coupling != "frobenius":
        raise ValueError("symmetric tensor fields only support Frobenius coupling")
    return z.with_values(project_dual_ball_array(z.values, alpha, coupling, weights))


def _check_levels(dims, levels: int) -> None:
    if levels < 1:
        raise ValueError("levels must be >= 1")
    for n in dims:
        if n % (1 << levels):
            raise ValueError(f"dims {dims} not divisible by 2^{levels}")


_SQRT2 = np.sqrt(2.0)


def _haar1d_fwd(block: np.ndarray, axis: int) -> None:
    """One Haar step along ``axis``, in place: lows to the first half, highs to the second."""
    head = (slice(None),) * axis
    even, odd = block[head + (slice(0, None, 2),)], block[head + (slice(1, None, 2),)]
    lo, hi = (even + odd) / _SQRT2, (even - odd) / _SQRT2
    n = lo.shape[axis]
    block[head + (slice(0, n),)] = lo
    block[head + (slice(n, None),)] = hi


def _haar1d_inv(block: np.ndarray, axis: int) -> None:
    """Inverse of :func:`_haar1d_fwd`, in place."""
    head = (slice(None),) * axis
    n = block.shape[axis] // 2
    lo, hi = block[head + (slice(0, n),)], block[head + (slice(n, None),)]
    even, odd = (lo + hi) / _SQRT2, (lo - hi) / _SQRT2
    block[head + (slice(0, None, 2),)] = even
    block[head + (slice(1, None, 2),)] = odd


def _haar_levels(values: np.ndarray, levels: int, transform, order) -> np.ndarray:
    """Transform every grid axis of the level-k corner block, for k in ``order``."""
    dims = values.shape[:-1]
    _check_levels(dims, levels)
    vals = values.copy()
    for k in order:
        block = vals[tuple(slice(0, n >> k) for n in dims)]
        for ax in range(len(dims)):
            transform(block, ax)
    return vals


def haar_forward_array(values: np.ndarray, levels: int) -> np.ndarray:
    """Orthonormal multi-level Haar transform of ``(*dims, N)`` values, channel-wise."""
    return _haar_levels(values, levels, _haar1d_fwd, range(levels))


def haar_inverse_array(values: np.ndarray, levels: int) -> np.ndarray:
    """Inverse (= adjoint) of :func:`haar_forward_array`."""
    return _haar_levels(values, levels, _haar1d_inv, reversed(range(levels)))


def haar_forward(u: MultiImage, levels: int) -> MultiImage:
    """Orthonormal multi-level Haar transform, channel-wise, Mallat layout."""
    return u.with_values(haar_forward_array(u.values, levels))


def haar_inverse(coeffs: MultiImage, levels: int) -> MultiImage:
    """Inverse (= adjoint) of :func:`haar_forward`."""
    return coeffs.with_values(haar_inverse_array(coeffs.values, levels))


def group_norms(values: np.ndarray) -> np.ndarray:
    """Cross-channel 2-norm of each coefficient of ``(*dims, N)`` values,
    summed one channel at a time by :func:`block_sum_squares`."""
    return np.sqrt(block_sum_squares(values[..., None]))


def project_group_l2ball_array(values: np.ndarray, alpha: float) -> np.ndarray:
    """Per coefficient index, scale the cross-channel vector to norm <= alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return values / np.maximum(1.0, group_norms(values)[..., None] / alpha)


def project_group_l2ball(shat: MultiImage, alpha: float) -> MultiImage:
    """Per coefficient index, scale the cross-channel vector to norm <= alpha."""
    return shat.with_values(project_group_l2ball_array(shat.values, alpha))


def group_l21_norm(coeffs: np.ndarray) -> float:
    """Sum over coefficient indices of the cross-channel 2-norm, ``(*dims, N)`` values."""
    return float(np.sum(group_norms(coeffs)))
