"""Pointwise coupling machinery: dual-ball projections (closed-form
singular-value clips on 2-D grids) and the orthonormal Haar transform.

The dual prox of the coupled l1 terms is a pointwise projection onto the
dual-norm ball: plain rescaling for Frobenius coupling, a singular-value
clip (spectral-ball projection) for nuclear coupling.  The group-l2 ball of
wavelet coefficients is the Frobenius ball of one-component site blocks.
One butterfly generates both directions of the Haar transform: the inverse
only swaps its source and destination layouts, so it is the exact transpose.
The ``*_array`` functions take and give component-major values
(``tail + (N,) + dims``, see :mod:`.grids`); the field functions convert at
their boundary.
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
    """Rows x, y of the 2 x N site blocks B of (2, N, *dims) values, and h, b,
    r, mid of B B^T = [[a, b], [b, c]]: its eigenvalues are mid +- r = hypot(h, b).

    The entries are summed one channel at a time, as :func:`block_sum_squares`
    does, and bitwise equal to NumPy's reductions over N for N <= 7."""
    x, y = values[0], values[1]
    a, c = block_sum_squares(x[None]), block_sum_squares(y[None])
    b = x[0] * y[0]
    for n in range(1, x.shape[0]):
        b += x[n] * y[n]
    h = 0.5 * (a - c)
    return x, y, h, b, np.hypot(h, b), 0.5 * (a + c)


def _clip_singular_values(values: np.ndarray, alpha: float) -> np.ndarray:
    """Spectral-ball projection of the d x N site blocks of (d, N, *dims) values.

    For d = 2 the clip is M @ B with M = f2 I + (f1 - f2) e1 e1^T and
    f_k = min(1, alpha / s_k), where s_k^2 and e1 come in closed form from
    the Gram matrix B B^T = [[a, b], [b, c]].  The small s_2 loses digits
    when B is nearly rank-deficient, which does no harm: f2 = 1 as soon as
    s_2 <= alpha.  Other d use a batched SVD of the blocks as (*dims, d, N).
    """
    if values.shape[0] != 2:
        blocks = np.moveaxis(values, (0, 1), (-2, -1))
        u, s, vt = np.linalg.svd(blocks, full_matrices=False)
        np.minimum(s, alpha, out=s)
        clipped = np.einsum("...ik,...k,...kn->...ni", u, s, vt)
        return np.ascontiguousarray(np.moveaxis(clipped, (-1, -2), (0, 1)))
    x, y, h, b, r, mid = _gram_2x2(values)
    f1 = alpha / np.maximum(np.sqrt(mid + r), alpha)
    f2 = alpha / np.maximum(np.sqrt(np.maximum(mid - r, 0.0)), alpha)
    # e1 e1^T = [[1 + h/r, b/r], [b/r, 1 - h/r]] / 2; at r = 0, f1 = f2 and M = f I
    g = 0.5 * (f1 - f2)
    hr = np.divide(h, r, out=np.zeros_like(r), where=r > 0)
    br = np.divide(b, r, out=np.zeros_like(r), where=r > 0)
    m00 = f2 + g * (1.0 + hr)
    m11 = f2 + g * (1.0 - hr)
    m01 = g * br
    return np.stack([m00 * x + m01 * y, m01 * x + m11 * y])


def project_dual_ball_array(values: np.ndarray, alpha: float, coupling="frobenius", weights=None):
    """Project each (k, N) site block of (k, N, *dims) values onto the dual ball."""
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    if coupling == "frobenius":
        norms = pointwise_norms_array(values, weights=weights)
        return values / np.maximum(1.0, norms.reshape(values.shape[2:]) / alpha)
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
    return z.from_cm(z.grid, project_dual_ball_array(z.cm_values, alpha, coupling, weights))


def check_levels(dims, levels: int) -> None:
    """Raise ValueError unless levels >= 1 and 2**levels divides every axis of dims."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    for n in dims:
        if n % (1 << levels):
            raise ValueError(f"dims {dims} not divisible by 2^{levels}")


_SQRT2 = np.sqrt(2.0)


def _haar_step(block: np.ndarray, axis: int, inverse: bool) -> None:
    """The butterfly ``(a + b) / sqrt(2), (a - b) / sqrt(2)`` along ``axis``, in
    place: forward from the even/odd sites to the low/high halves, inverse back."""
    head = (slice(None),) * axis
    n = block.shape[axis] // 2
    interleaved = head + (slice(0, None, 2),), head + (slice(1, None, 2),)
    halves = head + (slice(0, n),), head + (slice(n, None),)
    src, dst = (halves, interleaved) if inverse else (interleaved, halves)
    a, b = block[src[0]], block[src[1]]
    block[dst[0]], block[dst[1]] = (a + b) / _SQRT2, (a - b) / _SQRT2


def _haar_levels(values: np.ndarray, levels: int, inverse: bool) -> np.ndarray:
    """Step every grid axis of the level-k corner block of each channel,
    coarsest level last forward and first inverse."""
    dims = values.shape[1:]
    check_levels(dims, levels)
    vals = values.copy()
    for k in reversed(range(levels)) if inverse else range(levels):
        block = vals[(slice(None),) + tuple(slice(0, n >> k) for n in dims)]
        for ax in range(len(dims)):
            _haar_step(block, ax + 1, inverse)
    return vals


def haar_forward_array(values: np.ndarray, levels: int) -> np.ndarray:
    """Orthonormal multi-level Haar transform of ``(N, *dims)`` values, channel-wise."""
    return _haar_levels(values, levels, inverse=False)


def haar_inverse_array(values: np.ndarray, levels: int) -> np.ndarray:
    """Inverse (= adjoint) of :func:`haar_forward_array`."""
    return _haar_levels(values, levels, inverse=True)


def haar_forward(u: MultiImage, levels: int) -> MultiImage:
    """Orthonormal multi-level Haar transform, channel-wise, Mallat layout."""
    return u.from_cm(u.grid, haar_forward_array(u.cm_values, levels))


def haar_inverse(coeffs: MultiImage, levels: int) -> MultiImage:
    """Inverse (= adjoint) of :func:`haar_forward`."""
    return coeffs.from_cm(coeffs.grid, haar_inverse_array(coeffs.cm_values, levels))


def project_group_l2ball(shat: MultiImage, alpha: float) -> MultiImage:
    """Per coefficient index, scale the cross-channel vector to norm <= alpha."""
    values = shat.cm_values
    return shat.from_cm(shat.grid, project_dual_ball_array(values[None], alpha)[0])
