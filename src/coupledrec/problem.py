"""Problem specification: channels, regularizer modes, validation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import ForwardOp
from .grids import Grid

COUPLINGS = ("frobenius", "nuclear")


@dataclass(frozen=True)
class TGV2:
    """Second-order TGV with first-order coupling choice."""

    alpha0: float
    alpha1: float
    coupling: str = "frobenius"

    def __post_init__(self):
        if not (0 < self.alpha0 < np.inf and 0 < self.alpha1 < np.inf):
            raise ValueError("TGV weights must be positive and finite")
        if self.coupling not in COUPLINGS:
            raise ValueError(f"unknown coupling {self.coupling!r}")


@dataclass(frozen=True)
class WaveletL21:
    """Joint wavelet sparsity: group-l1 of cross-channel Haar coefficients."""

    levels: int = 2

    def __post_init__(self):
        levels = self.levels
        if isinstance(levels, bool) or not isinstance(levels, (int, np.integer)) or levels < 1:
            raise ValueError(f"levels must be an integer >= 1, got {levels!r}")


@dataclass(frozen=True)
class Quadratic:
    """(weight/2) ||u||_2^2; closed-form subgradients make rates checkable."""

    weight: float = 1.0

    def __post_init__(self):
        if not 0 < self.weight < np.inf:
            raise ValueError("weight must be positive and finite")


Regularizer = TGV2 | WaveletL21 | Quadratic


@dataclass(frozen=True)
class ChannelSpec:
    """One data channel: forward model, data, weight, discrepancy kind."""

    op: ForwardOp
    data: np.ndarray
    lam: float
    kind: str = "l2"  # "l2" | "kl"
    background: np.ndarray | None = None  # KL channels only

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64).reshape(-1)
        if data.size != self.op.codomain_dim:
            raise ValueError(
                f"data length {data.size} != operator codomain {self.op.codomain_dim}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("data must be finite")
        if self.kind not in ("l2", "kl"):
            raise ValueError(f"unknown discrepancy kind {self.kind!r}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be a positive finite number")
        bg = self.background
        if self.kind == "l2" and bg is not None:
            raise ValueError("a background applies to KL channels only")
        if self.kind == "kl":
            if np.any(data < 0):
                raise ValueError("KL data must be nonnegative")
            bg = np.zeros_like(data) if bg is None else np.asarray(bg, np.float64).reshape(-1)
            if bg.size != data.size or np.any(bg < 0) or not np.all(np.isfinite(bg)):
                raise ValueError("background must be nonnegative and match the data length")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "background", bg)


@dataclass(frozen=True)
class ProblemSpec:
    """Full reconstruction problem on one grid."""

    grid: Grid
    channels: tuple[ChannelSpec, ...]
    regularizer: Regularizer = field(default_factory=lambda: TGV2(2.0, 1.0))

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ValueError("need at least one channel")
        for c in channels:
            if c.op.grid != self.grid:
                raise ValueError("all channel operators must live on the problem grid")
        object.__setattr__(self, "channels", channels)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def kl_channels(self) -> list[int]:
        return [i for i, c in enumerate(self.channels) if c.kind == "kl"]
