"""Rectangular grids and multi-channel field containers.

Fields come in three kinds over a common grid: scalar images with N
channels, per-channel d-vectors, and per-channel symmetric d x d tensors.
A kind fixes its component axes (``tail``) and the inner-product weights,
and the solver sizes and weighs its plain-array iterates from it.  Symmetric
tensors are stored as the upper triangle; their inner product carries a
multiplicity weight of 2 on off-diagonal entries so that it agrees with the
full-matrix Frobenius inner product.

Values come in two layouts.  A field holds them site-major,
``dims + (N,) + tail``, the order of the file format and of the public API.
The ``*_array`` kernels and the solver's iterates hold them component-major,
``tail + (N,) + dims``: every channel of every component is then one
contiguous image, which NumPy steps through two to four times faster than the
strided per-channel slices of the site-major layout.  :func:`component_major`
and :func:`site_major` convert between the two with one axis permutation, a
view; the field wrappers of the kernels convert at their boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_NDIM = 3


def sym_size(d: int) -> int:
    """Number of stored entries of a symmetric d x d matrix."""
    return d * (d + 1) // 2


def component_major(values: np.ndarray, d: int) -> np.ndarray:
    """Site-major ``dims + (N,) + tail`` values on a d-dimensional grid as
    component-major ``tail + (N,) + dims``; a view."""
    t = values.ndim - d - 1
    return values.transpose(tuple(range(d + 1, d + 1 + t)) + (d,) + tuple(range(d)))


def site_major(values: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`component_major`; a view."""
    t = values.ndim - d - 1
    return values.transpose(tuple(range(t + 1, t + 1 + d)) + (t,) + tuple(range(t)))


def sym_index_pairs(d: int) -> list[tuple[int, int]]:
    """Row-major upper-triangle (a, b) index pairs, a <= b."""
    return [(a, b) for a in range(d) for b in range(a, d)]


def sym_weights(d: int) -> np.ndarray:
    """Multiplicity weights (1 on the diagonal, 2 off it)."""
    return np.array([1.0 if a == b else 2.0 for a, b in sym_index_pairs(d)])


@dataclass(frozen=True)
class Grid:
    """Rectangular pixel/voxel grid with per-axis spacing."""

    dims: tuple[int, ...]
    spacing: tuple[float, ...] | None = None

    def __post_init__(self):
        dims = tuple(self.dims)
        if not 1 <= len(dims) <= MAX_NDIM:
            raise ValueError(f"grid dimension must be in 1..{MAX_NDIM}, got {len(dims)}")
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n <= 0 for n in dims):
            raise ValueError(f"grid dims must be positive integers, got {dims!r}")
        dims = tuple(int(n) for n in dims)
        spacing = self.spacing
        if spacing is None:
            spacing = (1.0,) * len(dims)
        spacing = tuple(float(h) for h in spacing)
        if len(spacing) != len(dims):
            raise ValueError("spacing length must match dims length")
        if not all(0 < h < np.inf for h in spacing):
            raise ValueError(f"spacing must be positive and finite, got {spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def sites(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True)
class Field:
    """N-channel field on a grid; values shaped ``(*dims, N) + tail(d)``.

    A kind states only its trailing axes (``tail``) and the inner-product
    weights of its last axis (``weights``, None for the plain Euclidean
    product); validation and construction are shared.
    """

    grid: Grid
    values: np.ndarray

    @staticmethod
    def tail(d: int) -> tuple[int, ...]:
        raise TypeError("Field is abstract; use MultiImage, VectorField or SymTensorField")

    @staticmethod
    def weights(d: int) -> np.ndarray | None:
        return None

    def __post_init__(self):
        object.__setattr__(self, "values", self._check_values(self.values))

    def _check_values(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        dims, tail = self.grid.dims, self.tail(self.grid.ndim)
        n = values.shape[len(dims)] if values.ndim == len(dims) + 1 + len(tail) else 0
        if n < 1 or values.shape != dims + (n,) + tail:
            raise ValueError(
                f"{type(self).__name__}: expected shape {dims} + (N,) + {tail} with N >= 1, "
                f"got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{type(self).__name__}: non-finite values")
        return values

    @property
    def channels(self) -> int:
        return self.values.shape[self.grid.ndim]

    @classmethod
    def zeros(cls, grid: Grid, channels: int):
        return cls(grid, np.zeros(grid.dims + (channels,) + cls.tail(grid.ndim)))

    @property
    def cm_values(self) -> np.ndarray:
        """``values`` component-major, ``tail + (N,) + dims``; a view."""
        return component_major(self.values, self.grid.ndim)

    @classmethod
    def from_cm(cls, grid: Grid, values: np.ndarray):
        """The field holding component-major ``values``, as a view of them."""
        return cls(grid, site_major(values, grid.ndim))


class MultiImage(Field):
    """N-channel scalar field on a grid; values shaped ``(*dims, N)``."""

    @staticmethod
    def tail(d: int) -> tuple[int, ...]:
        return ()

    def channel(self, i: int) -> np.ndarray:
        """Single-channel array shaped like the grid."""
        return self.values[..., i]


class VectorField(Field):
    """Per-site, per-channel d-vectors; values shaped ``(*dims, N, d)``."""

    @staticmethod
    def tail(d: int) -> tuple[int, ...]:
        return (d,)


class SymTensorField(Field):
    """Per-site, per-channel symmetric tensors, upper triangle storage.

    Values are shaped ``(*dims, N, d*(d+1)/2)`` with entries ordered as
    :func:`sym_index_pairs`; the inner product weighs them by :func:`sym_weights`.
    """

    @staticmethod
    def tail(d: int) -> tuple[int, ...]:
        return (sym_size(d),)

    @staticmethod
    def weights(d: int) -> np.ndarray:
        return sym_weights(d)

    def to_full_matrices(self) -> np.ndarray:
        """Expand to full symmetric matrices, shape ``(*dims, N, d, d)``."""
        d = self.grid.ndim
        out = np.zeros(self.values.shape[:-1] + (d, d))
        for k, (a, b) in enumerate(sym_index_pairs(d)):
            out[..., a, b] = self.values[..., k]
            out[..., b, a] = self.values[..., k]
        return out


def _require_compatible(a: Field, b: Field) -> None:
    if type(a) is not type(b):
        raise ValueError(f"field type mismatch: {type(a).__name__} vs {type(b).__name__}")
    if a.grid != b.grid or a.values.shape != b.values.shape:
        raise ValueError("field shape mismatch")


def inner_product(a: Field, b: Field) -> float:
    """Euclidean inner product, weighted by the kind's ``weights``."""
    _require_compatible(a, b)
    w = a.weights(a.grid.ndim)
    if w is None:
        return float(np.sum(a.values * b.values))
    return float(np.sum(a.values * b.values * w))


def l2_norm(x: np.ndarray, out: np.ndarray | None = None) -> float:
    """The Euclidean norm of all of ``x``'s entries, with their squares
    written to ``out`` if given.

    The library's only whole-array norm.  The squares are added by NumPy's
    pairwise sum, whose order is fixed by the array's shape.  A BLAS dot
    (``np.linalg.norm``, ``np.dot``) splits its partial sums by the BLAS
    thread count, so its last digit, and every result computed from it,
    would depend on the machine.
    """
    return float(np.sqrt(np.sum(np.multiply(x, x, out=out))))


def block_sum_squares(values: np.ndarray, weights=None) -> np.ndarray:
    """Sum of the squared entries of each (k, N) site block of component-major
    (k, N, *dims) values; ``weights``, if given, scale the squares of each
    component.

    The squares are added one component at a time, in channel order: for
    N * k <= 7 that is bitwise what ``np.sum(values**2 * weights, axis=(-2, -1))``
    gives on the site-major layout, and within a few ulps beyond, but without
    NumPy's reduction loop over the short block axes, which runs once per site
    and was 2.5-3x slower.
    """
    k, n = values.shape[:2]
    total = None
    for i in range(n):
        for j in range(k):
            sq = values[j, i] ** 2
            if weights is not None:
                sq *= weights[j]
            if total is None:
                total = sq
            else:
                total += sq
    return total


def _nuclear_norms_2d(values: np.ndarray) -> np.ndarray:
    """Nuclear norms of the 2 x N site blocks of component-major (2, N, *dims) values.

    With rows x and y, (s1 + s2)^2 = |x|^2 + |y|^2 + 2 sqrt(det(B B^T)), and
    det(B B^T) is summed from the squared 2 x 2 minors (Lagrange's identity)
    rather than as |x|^2 |y|^2 - (x.y)^2, which cancels catastrophically on
    nearly rank-deficient blocks.
    """
    x, y = values[0], values[1]
    det = np.zeros(values.shape[2:])
    n = values.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            det += (x[i] * y[j] - x[j] * y[i]) ** 2
    return np.sqrt(block_sum_squares(values) + 2.0 * np.sqrt(det)).reshape(-1)


def pointwise_norms_array(values: np.ndarray, coupling: str = "frobenius", weights=None):
    """Coupling norm of each (k, N) site block of component-major (k, N, *dims)
    values, flat per site; Frobenius ``weights`` scale the squared entries of
    each component."""
    if coupling == "frobenius":
        total = block_sum_squares(values, weights)
        return np.sqrt(total, out=total).reshape(-1)
    if coupling == "nuclear" and values.shape[0] == 2:
        return _nuclear_norms_2d(values)
    if coupling == "nuclear":
        blocks = values.reshape(values.shape[:2] + (-1,)).transpose(2, 0, 1)
        return np.linalg.svd(blocks, compute_uv=False).sum(axis=-1)
    raise ValueError(f"unknown coupling {coupling!r}")


def pointwise_norms(z: VectorField | SymTensorField, coupling: str = "frobenius") -> np.ndarray:
    """Pointwise coupling norm per site, flat array of length ``sites``."""
    weights = z.weights(z.grid.ndim)
    if weights is not None and coupling != "frobenius":
        raise ValueError("symmetric tensor fields only support Frobenius coupling")
    return pointwise_norms_array(z.cm_values, coupling, weights)
