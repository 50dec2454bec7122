"""Per-channel forward operators and their exact adjoints.

Four kinds: identity, zero-padded convolution, masked unitary Fourier
sampling (MR-style k-space model, real-paired codomain), and a pixel-driven
discrete Radon transform (PET-style line sums).  The Radon matrix R of
nonnegative interpolation weights and its transpose are built once,
together, in one sort-free O(nnz) pass; the adjoint applies the exact
transpose, so the dot-product test passes to roundoff.  Both are canonical
CSR matrices (sorted columns, no duplicates), so each row's products are
summed in column order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    :meth:`apply` and :meth:`adjoint` return arrays that share no memory with
    their argument, so a caller may overwrite the result in place.
    ``empty_rows``, where known, are the data entries that T maps every image
    to zero (detector bins no pixel reaches).
    """

    kind: str
    grid: Grid
    codomain_dim: int
    _apply: Callable[[np.ndarray], np.ndarray]
    _adjoint: Callable[[np.ndarray], np.ndarray]
    empty_rows: np.ndarray | None = field(default=None, repr=False, compare=False)

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != self.grid.dims:
            raise ValueError(f"{self.kind}: image shape {u.shape} != grid {self.grid.dims}")
        return _fresh(self._apply(u), u)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if y.size != self.codomain_dim:
            raise ValueError(f"{self.kind}: data length {y.size} != {self.codomain_dim}")
        return _fresh(self._adjoint(y), y)

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


def _fresh(out: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """``out``, copied if it may be a view of ``arg``."""
    return out.copy() if np.may_share_memory(out, arg) else out


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


def _band(factor: np.ndarray, n: int) -> sp.dia_array:
    """The n x n matrix of zero-padded correlation with ``factor`` along one
    axis: entry (i, i + k) is ``factor[r + k]`` for a factor of length 2r + 1.
    ``_band(factor[::-1], n)`` is its transpose."""
    r = factor.size // 2
    return sp.dia_array((np.repeat(factor[:, None], n, axis=1), np.arange(-r, r + 1)), shape=(n, n))


def _along_axes(u: np.ndarray, mats: list[sp.dia_array]) -> np.ndarray:
    """``u`` with ``mats[ax]`` applied along each axis ``ax``.

    Each product runs on a C-contiguous ``(n_ax, rest)`` matrix, the axis
    swapped to the front; the previous product is dropped before the next is
    allocated, so at most two image-sized arrays are live at once.  The
    result may be a transposed view of a contiguous array.
    """
    for ax, m in enumerate(mats):
        moved = u.swapaxes(0, ax)
        shape = moved.shape
        flat = np.ascontiguousarray(moved.reshape(shape[0], -1))
        del u, moved
        u = (m @ flat).reshape(shape).swapaxes(0, ax)
    return u


def convolution_op(grid: Grid, kernel: np.ndarray) -> ForwardOp:
    """Same-size correlation with zero padding; adjoint flips the kernel.

    Kernel sizes must be odd along every axis so the centered origin is
    self-consistent between the pair.  A separable kernel runs as one banded
    sparse product per axis, with matrices built here from its 1-D factors,
    and the adjoint with their transposes, the bands of the reversed factors;
    any other kernel as a direct n-D correlation.  Either way a nonnegative
    kernel maps nonnegative images to nonnegative data, since only
    nonnegative products are summed.
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
        mats = [_band(f, n) for f, n in zip(factors, grid.dims)]
        # a symmetric factor's band is its own transpose
        adjoint_mats = [
            m if np.array_equal(f, f[::-1]) else _band(f[::-1], n)
            for m, f, n in zip(mats, factors, grid.dims)
        ]
        apply = partial(_along_axes, mats=mats)
        adjoint = partial(_along_axes, mats=adjoint_mats)
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
        # a complex128 array's memory is its (re, im) pairs, interleaved
        return np.fft.fftn(u, norm="ortho")[mask].view(np.float64)

    def adjoint(y):
        freq = np.zeros(grid.dims, dtype=np.complex128)
        # not y.view(np.complex128), which is not bitwise the same: the complex
        # sum and product below can turn a real or imaginary part of -0 into +0
        freq[mask] = y[0::2] + 1j * y[1::2]
        return np.fft.ifftn(freq, norm="ortho").real

    return ForwardOp(
        kind="masked_fourier",
        grid=grid,
        codomain_dim=2 * m,
        _apply=apply,
        _adjoint=adjoint,
    )


def _radon_matrices(
    grid: Grid, angles: np.ndarray, n_bins: int
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """R and R^T as canonical CSR matrices, built in one pass without a sort.

    R^T is built directly, one row per pixel.  A pixel's entries come in
    (angle, offset) order, so their columns ``k * n_bins + bin`` ascend,
    and no two coincide, since the two offsets hit different bins: the row
    pointer is the running count of the kept entries.  R is R^T's O(nnz)
    transpose, which writes its columns sorted.
    """
    ny, nx = grid.dims
    n_ang, per_pixel = angles.size, 2 * angles.size
    # per scalar angle: the array ufuncs may round differently
    cos = np.array([np.cos(theta) for theta in angles])
    sin = np.array([np.sin(theta) for theta in angles])
    # signed distance of each pixel center from the central ray, (y, x, angle)
    t = (
        np.multiply.outer(np.arange(nx) - (nx - 1) / 2.0, cos)[None]
        + np.multiply.outer(np.arange(ny) - (ny - 1) / 2.0, sin)[:, None]
    )
    pos = t.reshape(grid.sites, n_ang)
    pos += (n_bins - 1) / 2.0
    lo = np.floor(pos)
    w1 = np.subtract(pos, lo, out=pos)
    del t, pos
    # each pixel splats 1 - w1 onto bin lo and w1 onto bin lo + 1
    vals = np.empty((grid.sites, n_ang, 2))
    np.subtract(1.0, w1, out=vals[..., 0])
    vals[..., 1] = w1
    keep = np.empty(vals.shape, dtype=bool)
    keep[..., 0] = (lo >= 0) & (lo < n_bins) & (vals[..., 0] > 0)
    keep[..., 1] = (lo >= -1) & (lo < n_bins - 1) & (w1 > 0)
    del w1
    # int32 columns where they fit; the matrix's index dtype is scipy's choice
    col_type = np.int32 if n_ang * n_bins <= np.iinfo(np.int32).max else np.int64
    cols = np.empty(vals.shape, dtype=col_type)
    lo += np.arange(n_ang) * n_bins
    np.copyto(cols[..., 0], lo, casting="unsafe")
    del lo
    np.add(cols[..., 0], 1, out=cols[..., 1])
    # a pixel's row starts after its predecessors' entries, less those dropped
    dropped = np.flatnonzero(~keep)
    starts = np.arange(0, vals.size + 1, per_pixel)
    indptr = starts - np.searchsorted(dropped, starts)
    data, indices = vals[keep], cols[keep]
    del vals, cols, keep
    # scipy stores both index arrays as int32 when nnz and the shape fit, and
    # as int64 otherwise: the choice its COO -> CSR conversion makes
    mat_t = sp.csr_matrix((data, indices, indptr), shape=(grid.sites, n_ang * n_bins))
    return mat_t.T.tocsr(), mat_t


def radon_op(grid: Grid, angles, n_bins: int) -> ForwardOp:
    """Parallel-beam Radon transform on a 2D grid.

    Pixel-driven with linear splatting onto detector bins (spacing one
    pixel): every pixel distributes its value between the two nearest bins,
    so line sums conserve mass per angle and nonnegative images map to
    nonnegative sinograms.  Bins that no pixel reaches are kept, and
    recorded as the operator's ``empty_rows``.  R and R^T are built as
    canonical CSR matrices in one O(nnz) pass without a sort.
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
    mat, mat_t = _radon_matrices(grid, angles, n_bins)
    return ForwardOp(
        kind="radon",
        grid=grid,
        codomain_dim=mat.shape[0],
        _apply=lambda u: mat @ u.reshape(-1),
        _adjoint=lambda y: (mat_t @ y).reshape(grid.dims),
        empty_rows=np.flatnonzero(np.diff(mat.indptr) == 0),
    )


def default_n_bins(grid: Grid) -> int:
    """Detector length covering the diagonal of a 2D grid."""
    if grid.ndim != 2:
        raise ValueError("radon_op requires a 2D grid")
    return int(np.ceil(np.hypot(*grid.dims))) | 1
