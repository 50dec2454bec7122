"""Rectangular grids and multi-channel field containers.

All solver state lives in three field types over a common grid: scalar
images with N channels, per-channel d-vectors, and per-channel symmetric
d x d tensors.  Symmetric tensors are stored as the upper triangle; their
inner product carries a multiplicity weight of 2 on off-diagonal entries so
that it agrees with the full-matrix Frobenius inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_NDIM = 3


def sym_size(d: int) -> int:
    """Number of stored entries of a symmetric d x d matrix."""
    return d * (d + 1) // 2


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
        dims = tuple(int(n) for n in self.dims)
        if not 1 <= len(dims) <= MAX_NDIM:
            raise ValueError(f"grid dimension must be in 1..{MAX_NDIM}, got {len(dims)}")
        if any(n <= 0 for n in dims):
            raise ValueError(f"grid dims must be positive, got {dims}")
        spacing = self.spacing
        if spacing is None:
            spacing = (1.0,) * len(dims)
        spacing = tuple(float(h) for h in spacing)
        if len(spacing) != len(dims):
            raise ValueError("spacing length must match dims length")
        if any(h <= 0 for h in spacing):
            raise ValueError(f"spacing must be positive, got {spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def sites(self) -> int:
        return int(np.prod(self.dims))


def _check_values(values: np.ndarray, expected_shape: tuple[int, ...], what: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != expected_shape:
        raise ValueError(f"{what}: expected shape {expected_shape}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what}: non-finite values")
    return values


@dataclass(frozen=True)
class MultiImage:
    """N-channel scalar field on a grid; values shaped ``(*dims, N)``."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        n = self.values.shape[-1] if np.ndim(self.values) == self.grid.ndim + 1 else 0
        if n < 1:
            raise ValueError("MultiImage needs at least one channel")
        vals = _check_values(self.values, self.grid.dims + (n,), "MultiImage")
        object.__setattr__(self, "values", vals)

    @property
    def channels(self) -> int:
        return self.values.shape[-1]

    @classmethod
    def zeros(cls, grid: Grid, channels: int) -> "MultiImage":
        return cls(grid, np.zeros(grid.dims + (channels,)))

    def channel(self, i: int) -> np.ndarray:
        """Single-channel array shaped like the grid."""
        return self.values[..., i]

    def with_values(self, values: np.ndarray) -> "MultiImage":
        return MultiImage(self.grid, values)


@dataclass(frozen=True)
class VectorField:
    """Per-site, per-channel d-vectors; values shaped ``(*dims, N, d)``."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.values)
        if len(shape) != self.grid.ndim + 2 or shape[-1] != self.grid.ndim:
            raise ValueError(
                f"VectorField: expected shape (*{self.grid.dims}, N, {self.grid.ndim})"
            )
        n = shape[-2]
        vals = _check_values(self.values, self.grid.dims + (n, self.grid.ndim), "VectorField")
        object.__setattr__(self, "values", vals)

    @property
    def channels(self) -> int:
        return self.values.shape[-2]

    @classmethod
    def zeros(cls, grid: Grid, channels: int) -> "VectorField":
        return cls(grid, np.zeros(grid.dims + (channels, grid.ndim)))

    def with_values(self, values: np.ndarray) -> "VectorField":
        return VectorField(self.grid, values)


@dataclass(frozen=True)
class SymTensorField:
    """Per-site, per-channel symmetric tensors, upper triangle storage.

    Values are shaped ``(*dims, N, d*(d+1)/2)`` with entries ordered as
    :func:`sym_index_pairs`.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        s = sym_size(self.grid.ndim)
        shape = np.shape(self.values)
        if len(shape) != self.grid.ndim + 2 or shape[-1] != s:
            raise ValueError(f"SymTensorField: expected shape (*{self.grid.dims}, N, {s})")
        n = shape[-2]
        vals = _check_values(self.values, self.grid.dims + (n, s), "SymTensorField")
        object.__setattr__(self, "values", vals)

    @property
    def channels(self) -> int:
        return self.values.shape[-2]

    @classmethod
    def zeros(cls, grid: Grid, channels: int) -> "SymTensorField":
        return cls(grid, np.zeros(grid.dims + (channels, sym_size(grid.ndim))))

    def with_values(self, values: np.ndarray) -> "SymTensorField":
        return SymTensorField(self.grid, values)

    def to_full_matrices(self) -> np.ndarray:
        """Expand to full symmetric matrices, shape ``(*dims, N, d, d)``."""
        d = self.grid.ndim
        out = np.zeros(self.values.shape[:-1] + (d, d))
        for k, (a, b) in enumerate(sym_index_pairs(d)):
            out[..., a, b] = self.values[..., k]
            out[..., b, a] = self.values[..., k]
        return out


Field = MultiImage | VectorField | SymTensorField


def _require_compatible(a: Field, b: Field) -> None:
    if type(a) is not type(b):
        raise ValueError(f"field type mismatch: {type(a).__name__} vs {type(b).__name__}")
    if a.grid != b.grid or a.values.shape != b.values.shape:
        raise ValueError("field shape mismatch")


def inner_product(a: Field, b: Field) -> float:
    """Euclidean inner product; symmetric tensors count off-diagonals twice."""
    _require_compatible(a, b)
    if isinstance(a, SymTensorField):
        w = sym_weights(a.grid.ndim)
        return float(np.sum(a.values * b.values * w))
    return float(np.sum(a.values * b.values))


def _nuclear_norms_2d(values: np.ndarray) -> np.ndarray:
    """Nuclear norms of the 2 x N site blocks of ``(*dims, N, 2)`` values.

    With rows x and y, (s1 + s2)^2 = |x|^2 + |y|^2 + 2 sqrt(det(B B^T)), and
    det(B B^T) is summed from the squared 2 x 2 minors (Lagrange's identity)
    rather than as |x|^2 |y|^2 - (x.y)^2, which cancels catastrophically on
    nearly rank-deficient blocks.
    """
    x, y = values[..., 0], values[..., 1]
    det = np.zeros(values.shape[:-2])
    n = values.shape[-2]
    for i in range(n):
        for j in range(i + 1, n):
            det += (x[..., i] * y[..., j] - x[..., j] * y[..., i]) ** 2
    sq = np.sum(values**2, axis=(-2, -1))
    return np.sqrt(sq + 2.0 * np.sqrt(det)).reshape(-1)


def pointwise_norms_array(values: np.ndarray, coupling: str = "frobenius", weights=None):
    """Coupling norm of each (N, k) site block of (*dims, N, k) values, flat per
    site; Frobenius ``weights`` scale the squared entries of the last axis."""
    if coupling == "frobenius":
        sq = values**2 if weights is None else values**2 * weights
        return np.sqrt(np.sum(sq, axis=(-2, -1))).reshape(-1)
    if coupling == "nuclear" and values.shape[-1] == 2:
        return _nuclear_norms_2d(values)
    if coupling == "nuclear":
        blocks = values.reshape((-1,) + values.shape[-2:]).transpose(0, 2, 1)
        return np.linalg.svd(blocks, compute_uv=False).sum(axis=-1)
    raise ValueError(f"unknown coupling {coupling!r}")


def pointwise_norms(z: VectorField | SymTensorField, coupling: str = "frobenius") -> np.ndarray:
    """Pointwise coupling norm per site, flat array of length ``sites``."""
    if isinstance(z, SymTensorField):
        if coupling != "frobenius":
            raise ValueError("symmetric tensor fields only support Frobenius coupling")
        return pointwise_norms_array(z.values, weights=sym_weights(z.grid.ndim))
    return pointwise_norms_array(z.values, coupling)
