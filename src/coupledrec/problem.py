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
        if self.alpha0 <= 0 or self.alpha1 <= 0:
            raise ValueError("TGV weights must be positive")
        if self.coupling not in COUPLINGS:
            raise ValueError(f"unknown coupling {self.coupling!r}")


@dataclass(frozen=True)
class WaveletL21:
    """Joint wavelet sparsity: group-l1 of cross-channel Haar coefficients."""

    levels: int = 2

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")


@dataclass(frozen=True)
class Quadratic:
    """(weight/2) ||u||_2^2; closed-form subgradients make rates checkable."""

    weight: float = 1.0

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("weight must be positive")


Regularizer = TGV2 | WaveletL21 | Quadratic


@dataclass(frozen=True)
class ChannelSpec:
    """One data channel: forward model, data, weight, discrepancy kind."""

    op: ForwardOp
    data: np.ndarray
    lam: float
    kind: str = "l2"  # "l2" | "kl"
    background: np.ndarray | None = None

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
