"""Per-channel forward operators and their exact adjoints.

Four kinds: identity, zero-padded convolution, masked unitary Fourier
sampling (MR-style k-space model, real-paired codomain), and a pixel-driven
discrete Radon transform (PET-style line sums).  The Radon matrix is built
once as a sparse matrix of nonnegative interpolation weights; its adjoint
is the exact transpose, so the dot-product test passes to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Callable

import numpy as np
import scipy.ndimage as ndi
import scipy.sparse as sp

from . import diffops
from .diffops import LinearOp
from .grids import Grid


@dataclass(frozen=True)
class ForwardOp:
    """One channel's forward model T_i, mapping a grid image to a flat data vector.

    Frozen, so that :attr:`norm`, computed on first use, cannot go stale.
    """

    kind: str
    grid: Grid
    codomain_dim: int
    _apply: Callable[[np.ndarray], np.ndarray]
    _adjoint: Callable[[np.ndarray], np.ndarray]

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != self.grid.dims:
            raise ValueError(f"{self.kind}: image shape {u.shape} != grid {self.grid.dims}")
        return self._apply(u)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if y.size != self.codomain_dim:
            raise ValueError(f"{self.kind}: data length {y.size} != {self.codomain_dim}")
        return self._adjoint(y)

    def as_linear_op(self) -> LinearOp:
        return LinearOp(
            apply=lambda x: self._apply(x.reshape(self.grid.dims)),
            adjoint=lambda y: self._adjoint(y).reshape(-1),
            domain_dim=self.grid.sites,
            codomain_dim=self.codomain_dim,
        )

    @cached_property
    def norm(self) -> float:
        """||T||, a power-iteration lower bound (at most 100 iterations, stopping
        once the estimate settles, from a fixed seed of 0), computed once per
        operator: every problem that shares the operator shares its norm."""
        return diffops.op_norm_estimate(self.as_linear_op(), iters=100, seed=0)


def identity_op(grid: Grid) -> ForwardOp:
    return ForwardOp(
        kind="identity",
        grid=grid,
        codomain_dim=grid.sites,
        _apply=lambda u: u.reshape(-1).copy(),
        _adjoint=lambda y: y.reshape(grid.dims).copy(),
    )


def _separable_factors(kernel: np.ndarray) -> list[np.ndarray] | None:
    """1-D factors whose outer product is ``kernel``, or None if it is not rank 1.

    The factors are the kernel's fibres through its largest-magnitude entry,
    all but the first divided by that entry, so a nonnegative kernel has
    nonnegative factors.
    """
    peak = np.unravel_index(np.argmax(np.abs(kernel)), kernel.shape)
    top = kernel[peak]
    if top == 0:
        return None
    factors = []
    for ax in range(kernel.ndim):
        fibre = kernel[peak[:ax] + (slice(None),) + peak[ax + 1 :]]
        factors.append(fibre.copy() if ax == 0 else fibre / top)
    if np.max(np.abs(reduce(np.multiply.outer, factors) - kernel)) > 1e-14 * abs(top):
        return None
    return factors


def _correlate_axes(u: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Zero-padded correlation with the outer product of ``factors``, one axis at a time."""
    for ax, f in enumerate(factors):
        u = ndi.correlate1d(u, f, axis=ax, mode="constant", cval=0.0)
    return u


def convolution_op(grid: Grid, kernel: np.ndarray) -> ForwardOp:
    """Same-size correlation with zero padding; adjoint flips the kernel.

    Kernel sizes must be odd along every axis so the centered origin is
    self-consistent between the pair.  A separable kernel runs as one 1-D
    pass per axis, any other as a direct n-D correlation; either way a
    nonnegative kernel maps nonnegative images to nonnegative data.
    """
    kernel = np.array(kernel, dtype=np.float64)  # a copy: the caller may reuse theirs
    if kernel.ndim != grid.ndim:
        raise ValueError("kernel dimensionality must match the grid")
    if not np.all(np.isfinite(kernel)):
        raise ValueError("kernel must be finite")
    if any(s % 2 == 0 for s in kernel.shape):
        raise ValueError("kernel sizes must be odd")
    factors = _separable_factors(kernel)
    if factors is None:
        flipped = kernel[tuple(slice(None, None, -1) for _ in range(kernel.ndim))].copy()
        apply = partial(ndi.correlate, weights=kernel, mode="constant", cval=0.0)
        adjoint = partial(ndi.correlate, weights=flipped, mode="constant", cval=0.0)
    else:
        apply = partial(_correlate_axes, factors=factors)
        adjoint = partial(_correlate_axes, factors=[f[::-1].copy() for f in factors])
    return ForwardOp(
        kind="convolution",
        grid=grid,
        codomain_dim=grid.sites,
        _apply=lambda u: apply(u).reshape(-1),
        _adjoint=lambda y: adjoint(y.reshape(grid.dims)),
    )


def masked_fourier_op(grid: Grid, mask: np.ndarray) -> ForwardOp:
    """Unitary DFT, keeping masked frequencies as interleaved (re, im) pairs."""
    mask = np.asarray(mask).astype(bool)
    if mask.shape != grid.dims:
        raise ValueError(f"mask shape {mask.shape} != grid {grid.dims}")
    m = int(mask.sum())
    if m == 0:
        raise ValueError("mask keeps no frequencies")

    def apply(u):
        freq = np.fft.fftn(u, norm="ortho")[mask]
        out = np.empty(2 * m)
        out[0::2] = freq.real
        out[1::2] = freq.imag
        return out

    def adjoint(y):
        freq = np.zeros(grid.dims, dtype=np.complex128)
        freq[mask] = y[0::2] + 1j * y[1::2]
        return np.fft.ifftn(freq, norm="ortho").real

    return ForwardOp(
        kind="masked_fourier",
        grid=grid,
        codomain_dim=2 * m,
        _apply=apply,
        _adjoint=adjoint,
    )


def _radon_matrix(grid: Grid, angles: np.ndarray, n_bins: int) -> sp.csr_matrix:
    ny, nx = grid.dims
    cy, cx = (ny - 1) / 2.0, (nx - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(ny) - cy, np.arange(nx) - cx, indexing="ij")
    rows_all, cols_all, vals_all = [], [], []
    pix = np.arange(grid.sites)
    for k, theta in enumerate(angles):
        # signed distance of each pixel center from the central ray
        t = xx * np.cos(theta) + yy * np.sin(theta)
        pos = t.reshape(-1) + (n_bins - 1) / 2.0
        i0 = np.floor(pos).astype(np.int64)
        w1 = pos - i0
        for off, w in ((0, 1.0 - w1), (1, w1)):
            b = i0 + off
            ok = (b >= 0) & (b < n_bins) & (w > 0)
            rows_all.append(k * n_bins + b[ok])
            cols_all.append(pix[ok])
            vals_all.append(w[ok])
    rows = np.concatenate(rows_all)
    cols = np.concatenate(cols_all)
    vals = np.concatenate(vals_all)
    shape = (len(angles) * n_bins, grid.sites)
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def radon_op(grid: Grid, angles, n_bins: int) -> ForwardOp:
    """Parallel-beam Radon transform on a 2D grid.

    Pixel-driven with linear splatting onto detector bins (spacing one
    pixel): every pixel distributes its value between the two nearest bins,
    so line sums conserve mass per angle and nonnegative images map to
    nonnegative sinograms.
    """
    if grid.ndim != 2:
        raise ValueError("radon_op requires a 2D grid")
    angles = np.asarray(angles, dtype=np.float64).reshape(-1)
    if angles.size == 0:
        raise ValueError("need at least one angle")
    if not np.all((angles >= 0) & (angles < np.pi)):
        raise ValueError(f"angles must be finite and lie in [0, pi), got {angles.tolist()}")
    if isinstance(n_bins, bool) or not isinstance(n_bins, (int, np.integer)) or n_bins < 1:
        raise ValueError(f"n_bins must be a positive integer, got {n_bins!r}")
    mat = _radon_matrix(grid, angles, n_bins)
    mat_t = mat.T.tocsr()
    return ForwardOp(
        kind="radon",
        grid=grid,
        codomain_dim=mat.shape[0],
        _apply=lambda u: mat @ u.reshape(-1),
        _adjoint=lambda y: (mat_t @ y).reshape(grid.dims),
    )


def default_n_bins(grid: Grid) -> int:
    """Detector length covering the grid diagonal."""
    return int(np.ceil(np.hypot(*grid.dims))) | 1
