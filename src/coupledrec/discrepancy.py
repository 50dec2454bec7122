"""Data discrepancies, their dual proximal maps, and calibrated noise.

The two discrepancy functionals are the squared 2-norm, lam * ||v - f||_2^2,
and the Kullback-Leibler divergence

    KL(v, f) = sum_k (v_k - f_k - f_k log(v_k / f_k))

with the conventions 0 log(a/0) = 0 and -b log(0/b) = +inf for b > 0.
The dual proxes are the resolvents of the conjugates used inside the
primal-dual iteration; both take already-shifted arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import l2_norm


@dataclass(frozen=True)
class NoiseRealization:
    """Noisy data plus its realized noise level.

    ``delta`` is ||f - f_true||_2 for Gaussian noise and KL(f_true, f) for
    Poisson noise.
    """

    data: np.ndarray
    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"invalid noise level {self.delta}")


def eval_l2sq(v: np.ndarray, f: np.ndarray) -> float:
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    if v.size != f.size:
        raise ValueError("length mismatch")
    return float(np.sum((v - f) ** 2))


def eval_kl(v: np.ndarray, f: np.ndarray) -> float:
    """KL divergence; returns +inf outside its domain."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    if v.size != f.size:
        raise ValueError("length mismatch")
    if np.any(v < 0) or np.any(f < 0):
        return np.inf
    pos = f > 0
    if np.any(pos & (v == 0)):
        return np.inf
    v0, vp, fp = v[~pos], v[pos], f[pos]
    terms = vp - fp - fp * np.log(vp / fp)
    return max(float(np.sum(v0)) + float(np.sum(terms)), 0.0)


def prox_l2_dual(fhat: np.ndarray, sigma: float, lam: float) -> np.ndarray:
    """Dual prox for the lam*||.-f||_2^2 data term.

    `fhat` is the shifted dual argument r + sigma*T(u) - sigma*f.  This is
    the resolvent of sigma * d(conjugate of lam*||.-f||_2^2), which works out
    to elementwise division by 1 + sigma/(2*lam); the factor 2 (rather than
    the oft-seen 1) keeps the solved data term exactly lam*||.-f||^2 with no
    implicit 1/2.
    """
    if not (0 < sigma < np.inf and 0 < lam < np.inf):
        raise ValueError(f"sigma and lam must be positive and finite, got {sigma!r}, {lam!r}")
    return np.asarray(fhat, dtype=np.float64) / (1.0 + sigma / (2.0 * lam))


def prox_kl_dual(rhat: np.ndarray, f: np.ndarray, sigma: float, lam: float) -> np.ndarray:
    """Dual prox for the lam*KL(.+c, f) data term.

    `rhat` is the shifted dual argument r + sigma*T(u) + sigma*c.  Closed
    form: rhat - (rhat - lam + sqrt((rhat - lam)^2 + 4*sigma*lam*f)) / 2.
    Where f > 0 the output is strictly below lam; where f = 0 it equals
    min(rhat, lam).
    """
    if not (0 <= sigma < np.inf and 0 < lam < np.inf):
        raise ValueError(f"need finite sigma >= 0 and lam > 0, got {sigma!r}, {lam!r}")
    rhat = np.asarray(rhat, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("KL data must be nonnegative")
    shifted = np.subtract(rhat, lam, out=np.empty(np.broadcast(rhat, f).shape))
    root = np.square(shifted, out=np.empty_like(shifted))
    root += 4.0 * sigma * lam * f
    shifted += np.sqrt(root, out=root)
    shifted *= 0.5
    return np.subtract(rhat, shifted, out=shifted)


def add_gaussian_noise(f_true: np.ndarray, target_delta: float, seed: int) -> NoiseRealization:
    """i.i.d. Gaussian noise rescaled so ||f - f_true||_2 == target_delta exactly."""
    f_true = np.asarray(f_true, dtype=np.float64).reshape(-1)
    if target_delta < 0:
        raise ValueError("target_delta must be >= 0")
    if target_delta == 0:
        return NoiseRealization(f_true.copy(), 0.0)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(f_true.size)
    noise *= target_delta / l2_norm(noise)
    return NoiseRealization(f_true + noise, float(target_delta))


def add_poisson_noise(f_true: np.ndarray, count_scale: float, seed: int) -> NoiseRealization:
    """Scaled Poisson counts: f = Poisson(s * f_true) / s.

    The realized noise level is KL(f_true, f); bins with f_true = 0 stay 0.
    """
    f_true = np.asarray(f_true, dtype=np.float64).reshape(-1)
    if count_scale <= 0:
        raise ValueError("count_scale must be positive")
    if np.any(f_true < 0):
        raise ValueError("Poisson model needs nonnegative clean data")
    lam = count_scale * f_true
    if lam.size and lam.max() > 2**62:
        raise ValueError("count_scale overflows the Poisson count range")
    rng = np.random.default_rng(seed)
    data = rng.poisson(lam).astype(np.float64) / count_scale
    delta = eval_kl(f_true, data)
    return NoiseRealization(data, delta)


def poisson_scale_for_delta(f_true: np.ndarray, target_delta: float) -> float:
    """Count scale whose expected realized KL level is roughly `target_delta`.

    E[KL(f_true, Poisson(s f)/s)] ~ m / (2s) with m the number of positive
    bins, from the second-order expansion of KL around f_true.
    """
    f_true = np.asarray(f_true, dtype=np.float64).reshape(-1)
    if not 0 < target_delta < np.inf:
        raise ValueError(f"target_delta must be positive and finite, got {target_delta!r}")
    m = max(int(np.sum(f_true > 0)), 1)
    return m / (2.0 * target_delta)
