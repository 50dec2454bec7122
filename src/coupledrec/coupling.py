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
    does, and bitwise equal to NumPy's reductions over N for N <= 7; mid and r
    are written over a and c."""
    x, y = values[0], values[1]
    a, c = block_sum_squares(x[None]), block_sum_squares(y[None])
    b = x[0] * y[0]
    for n in range(1, x.shape[0]):
        b += x[n] * y[n]
    h = np.subtract(a, c)
    h *= 0.5
    mid = np.add(a, c, out=a)
    mid *= 0.5
    return x, y, h, b, np.hypot(h, b, out=c), mid


def _clip_singular_values(values: np.ndarray, alpha: float) -> np.ndarray:
    """Spectral-ball projection of the d x N site blocks of (d, N, *dims) values.

    For d = 2 the clip is M @ B with M = f2 I + (f1 - f2) e1 e1^T and
    f_k = min(1, alpha / s_k), where s_k^2 and e1 come in closed form from
    the Gram matrix B B^T = [[a, b], [b, c]].  The small s_2 loses digits
    when B is nearly rank-deficient, which does no harm: f2 = 1 as soon as
    s_2 <= alpha.  Every site-sized quantity is formed in place over one
    that is no longer needed, so the clip holds five site images besides
    its output.  Other d use a batched SVD of the blocks as (*dims, d, N).
    """
    if values.shape[0] != 2:
        blocks = np.moveaxis(values, (0, 1), (-2, -1))
        u, s, vt = np.linalg.svd(blocks, full_matrices=False)
        np.minimum(s, alpha, out=s)
        clipped = np.einsum("...ik,...k,...kn->...ni", u, s, vt)
        return np.ascontiguousarray(np.moveaxis(clipped, (-1, -2), (0, 1)))
    x, y, h, b, r, mid = _gram_2x2(values)
    # f1 = alpha / max(sqrt(mid + r), alpha), and f2 the same of max(mid - r, 0) over mid
    f1 = np.add(mid, r)
    f2 = np.maximum(np.subtract(mid, r, out=mid), 0.0, out=mid)
    for f in (f1, f2):
        np.divide(alpha, np.maximum(np.sqrt(f, out=f), alpha, out=f), out=f)
    # e1 e1^T = [[1 + h/r, b/r], [b/r, 1 - h/r]] / 2; at r = 0, f1 = f2 and M = f I
    g = np.multiply(np.subtract(f1, f2, out=f1), 0.5, out=f1)
    positive = r > 0
    for ratio in (h, b):
        np.divide(ratio, r, out=ratio, where=positive)
        np.copyto(ratio, 0.0, where=~positive)
    m00 = np.add(np.multiply(np.add(1.0, h, out=r), g, out=r), f2, out=r)
    m11 = np.add(np.multiply(np.subtract(1.0, h, out=h), g, out=h), f2, out=h)
    m01 = np.multiply(b, g, out=b)
    out = np.empty_like(values)
    term = f2  # free once m00 and m11 hold it
    for n in range(x.shape[0]):
        for row, (left, right) in enumerate(((m00, m01), (m01, m11))):
            np.multiply(left, x[n], out=out[row, n])
            out[row, n] += np.multiply(right, y[n], out=term)
    return out


def project_dual_ball_array(values: np.ndarray, alpha: float, coupling="frobenius", weights=None):
    """Project each (k, N) site block of (k, N, *dims) values onto the dual ball."""
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    if coupling == "frobenius":
        norms = pointwise_norms_array(values, weights=weights)
        norms /= alpha
        return values / np.maximum(1.0, norms, out=norms).reshape(values.shape[2:])
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
    total, diff = np.add(a, b), np.subtract(a, b)
    block[dst[0]] = np.divide(total, _SQRT2, out=total)
    block[dst[1]] = np.divide(diff, _SQRT2, out=diff)


def _haar_levels(values: np.ndarray, levels: int, inverse: bool) -> np.ndarray:
    """Step every grid axis of the level-k corner block of each channel,
    coarsest level last forward and first inverse, over ``values`` itself,
    which it returns.  Each channel is stepped on its own, so that a
    butterfly's two temporaries are each half of one channel's block."""
    dims = values.shape[1:]
    check_levels(dims, levels)
    for k in reversed(range(levels)) if inverse else range(levels):
        corner = (slice(None),) + tuple(slice(0, n >> k) for n in dims)
        for part in (values[i : i + 1] for i in range(len(values))):
            for ax in range(len(dims)):
                _haar_step(part[corner], ax + 1, inverse)
    return values


def haar_forward_array(values: np.ndarray, levels: int) -> np.ndarray:
    """Orthonormal multi-level Haar transform of ``(N, *dims)`` values, channel-wise."""
    return _haar_levels(values.copy(), levels, inverse=False)


def haar_inverse_array(values: np.ndarray, levels: int) -> np.ndarray:
    """Inverse (= adjoint) of :func:`haar_forward_array`."""
    return _haar_levels(values.copy(), levels, inverse=True)


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
