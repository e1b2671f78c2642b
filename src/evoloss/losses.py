"""Two-view representation losses with analytic gradients.

Every loss takes two feature batches of shape (batch, dim) — one row
per sample, matching rows are views of the same input — and returns
``(loss, (grad_z1, grad_z2))`` so callers can chain into an encoder
without autodiff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFeatureError, NormalizationError, ValidationError

#: Softmax temperature applied to pairwise cosine similarities.
DEFAULT_TEMPERATURE = 0.07
#: Weight of the off-diagonal (redundancy) terms in the decorrelation loss.
DEFAULT_OFFDIAG_WEIGHT = 0.0051


@dataclass(frozen=True)
class LossWeights:
    """Nonnegative mixing weights for the combined objective."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValidationError("loss weights must be finite")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValidationError(
                f"loss weights must be nonnegative, got ({self.alpha}, {self.beta})"
            )
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ValidationError("loss weights must not both be zero")


def _check_pair(z1, z2) -> tuple[np.ndarray, np.ndarray]:
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if z1.ndim != 2 or z2.ndim != 2:
        raise ValidationError("feature batches must be 2-D (batch, dim)")
    if z1.shape != z2.shape:
        raise ValidationError(f"view shapes differ: {z1.shape} vs {z2.shape}")
    if z1.shape[0] < 2:
        raise ValidationError(f"need a batch of at least 2, got {z1.shape[0]}")
    if z1.shape[1] < 1:
        raise ValidationError("feature dimension must be at least 1")
    if not (np.all(np.isfinite(z1)) and np.all(np.isfinite(z2))):
        raise ValidationError("feature batches must be finite")
    return z1, z2


def _check_temperature(temperature: float) -> None:
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValidationError(f"temperature must be positive, got {temperature}")


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValidationError(f"epsilon must be nonnegative, got {epsilon}")


def _check_rows(z1: np.ndarray, z2: np.ndarray) -> None:
    if (_row_norms(z1) == 0.0).any() or (_row_norms(z2) == 0.0).any():
        raise NormalizationError("a feature row has zero norm")


def _check_columns(z1: np.ndarray, z2: np.ndarray) -> None:
    if (_centered_columns(z1)[1] == 0.0).any() or (_centered_columns(z2)[1] == 0.0).any():
        raise DegenerateFeatureError("a feature column has zero variance")


# The kernels below assume checked input: 2-D finite views of one shape,
# no zero-norm row, no constant column, and a valid temperature/epsilon.
# The training loop calls them directly, once its inputs are checked.


def _row_norms(z: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(z * z, axis=1, keepdims=True))


def _centered_columns(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centered = z - np.add.reduce(z, axis=0) / z.shape[0]
    return centered, np.sqrt(np.add.reduce(centered * centered, axis=0))


def _exp_rows(s: np.ndarray):
    """Row maxima m, exp(s - m) and its row sums: what the row-wise
    logsumexp, m + log(sum), and the softmax, exp / sum, share."""
    m = np.maximum.reduce(s, axis=1, keepdims=True)
    e = np.exp(s - m)
    return m, e, np.add.reduce(e, axis=1, keepdims=True)


def _info_nce(z1: np.ndarray, z2: np.ndarray, temperature: float):
    """InfoNCE on checked input; returns (loss, grad_z1, grad_z2)."""
    nu = _row_norms(z1)
    nv = _row_norms(z2)
    u = z1 / nu
    v = z2 / nv
    s = (u @ v.T) / temperature
    n = s.shape[0]
    idx = np.arange(n)
    diag = s.diagonal()
    m1, e1, r1 = _exp_rows(s)
    m2, e2, r2 = _exp_rows(s.T)
    loss = 0.5 * (
        np.add.reduce((m1 + np.log(r1))[:, 0] - diag) / n
        + np.add.reduce((m2 + np.log(r2))[:, 0] - diag) / n
    )
    # softmax of each direction minus the one-hot positives
    p1 = e1 / r1
    p1[idx, idx] -= 1.0
    p2 = e2 / r2
    p2[idx, idx] -= 1.0
    g_s = (p1 + p2.T) / (2.0 * n)
    g_u = (g_s @ v) / temperature
    g_v = (g_s.T @ u) / temperature
    # undo the row normalization: project out the radial component
    g1 = (g_u - u * np.add.reduce(g_u * u, axis=1, keepdims=True)) / nu
    g2 = (g_v - v * np.add.reduce(g_v * v, axis=1, keepdims=True)) / nv
    return float(loss), g1, g2


def _barlow_twins(z1: np.ndarray, z2: np.ndarray, epsilon: float):
    """Barlow Twins on checked input; returns (loss, grad_z1, grad_z2)."""
    ca, na = _centered_columns(z1)
    cb, nb = _centered_columns(z2)
    a = ca / na
    b = cb / nb
    corr = a.T @ b
    idx = np.arange(corr.shape[0])
    diag = corr.diagonal()
    off = corr.copy()
    off[idx, idx] = 0.0
    loss = float(np.add.reduce((1.0 - diag) ** 2) + epsilon * np.add.reduce(off**2, axis=None))
    g_c = 2.0 * epsilon * corr
    g_c[idx, idx] = -2.0 * (1.0 - diag)
    g_a = b @ g_c.T
    g_b = a @ g_c
    # undo the column normalization, then the centering
    g_za = (g_a - a * np.add.reduce(g_a * a, axis=0)) / na
    g_zb = (g_b - b * np.add.reduce(g_b * b, axis=0)) / nb
    n = g_za.shape[0]
    g1 = g_za - np.add.reduce(g_za, axis=0) / n
    g2 = g_zb - np.add.reduce(g_zb, axis=0) / n
    return loss, g1, g2


def _ensemble(z1, z2, alpha: float, beta: float, temperature: float, epsilon: float):
    """Both losses on checked input and their weighted sum; returns
    (loss, loss_gen, loss_dis, grad_z1, grad_z2)."""
    loss_gen, gi1, gi2 = _info_nce(z1, z2, temperature)
    loss_dis, gb1, gb2 = _barlow_twins(z1, z2, epsilon)
    return (
        alpha * loss_gen + beta * loss_dis,
        loss_gen,
        loss_dis,
        alpha * gi1 + beta * gb1,
        alpha * gi2 + beta * gb2,
    )


def info_nce(z1, z2, temperature: float = DEFAULT_TEMPERATURE):
    """Symmetric contrastive alignment loss.

    Matching rows across the two views are positives; every other
    cross-view row is a negative.  Each direction scores anchors with a
    temperature-scaled cosine softmax, and the two directions are
    averaged.  Returns (loss, (grad_z1, grad_z2)).
    """
    z1, z2 = _check_pair(z1, z2)
    _check_temperature(temperature)
    _check_rows(z1, z2)
    loss, g1, g2 = _info_nce(z1, z2, temperature)
    return loss, (g1, g2)


def cross_correlation(z1, z2) -> np.ndarray:
    """Batch cross-correlation matrix between feature dimensions.

    Columns are centered over the batch and unit-normalized, so every
    entry is a correlation coefficient in [-1, 1].
    """
    z1, z2 = _check_pair(z1, z2)
    _check_columns(z1, z2)
    ca, na = _centered_columns(z1)
    cb, nb = _centered_columns(z2)
    return (ca / na).T @ (cb / nb)


def barlow_twins(z1, z2, epsilon: float = DEFAULT_OFFDIAG_WEIGHT):
    """Redundancy-reduction loss on the cross-correlation matrix.

    Pulls the diagonal toward 1 and the off-diagonal toward 0, the
    latter weighted by epsilon.  Returns (loss, (grad_z1, grad_z2)).
    """
    z1, z2 = _check_pair(z1, z2)
    _check_epsilon(epsilon)
    _check_columns(z1, z2)
    loss, g1, g2 = _barlow_twins(z1, z2, epsilon)
    return loss, (g1, g2)


def ensemble_loss(
    z1,
    z2,
    weights: LossWeights,
    temperature: float = DEFAULT_TEMPERATURE,
    epsilon: float = DEFAULT_OFFDIAG_WEIGHT,
):
    """Weighted sum of the contrastive and decorrelation losses.

    Returns (loss, (grad_z1, grad_z2)); the gradient is the same linear
    combination of the component gradients.
    """
    if not isinstance(weights, LossWeights):
        weights = LossWeights(*weights)
    z1, z2 = _check_pair(z1, z2)
    _check_temperature(temperature)
    _check_rows(z1, z2)
    _check_epsilon(epsilon)
    _check_columns(z1, z2)
    loss, _, _, g1, g2 = _ensemble(z1, z2, weights.alpha, weights.beta, temperature, epsilon)
    return float(loss), (g1, g2)
