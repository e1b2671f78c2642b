"""Two-view representation losses with analytic gradients.

Every loss takes two feature batches of shape (batch, dim) — one row
per sample, matching rows are views of the same input — and returns
``(loss, (grad_z1, grad_z2))`` so callers can chain into an encoder
without autodiff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFeatureError, NormalizationError, ValidationError, as_float

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
        as_float("alpha", self.alpha, "nonnegative")
        as_float("beta", self.beta, "nonnegative")
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ValidationError("loss weights must not both be zero")


def _check_pair(z1, z2) -> np.ndarray:
    """The two views, checked, stacked into one (2, batch, dim) array."""
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
    z = np.stack((z1, z2))
    if not np.all(np.isfinite(z)):
        raise ValidationError("feature batches must be finite")
    return z


# The kernels below take both views stacked into one (2, batch, dim)
# array z, so that each per-view operation is one numpy call, and they
# assume checked input: finite, no zero-norm row, no constant column,
# and a valid temperature/epsilon.  The training loop calls them
# directly, once its inputs are checked.  A stacked elementwise
# operation or reduction rounds each view exactly as the same call on
# that view alone.


def _row_norms(z: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(z * z, axis=-1, keepdims=True))


def _center(z: np.ndarray) -> np.ndarray:
    """Each column minus its mean over the batch."""
    return z - np.add.reduce(z, axis=-2, keepdims=True) / z.shape[-2]


def _centered_columns(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centered = _center(z)
    return centered, np.sqrt(np.add.reduce(centered * centered, axis=-2, keepdims=True))


def _exp_rows(s: np.ndarray):
    """Row maxima m, exp(s - m) and its row sums: what the row-wise
    logsumexp, m + log(sum), and the softmax, exp / sum, share."""
    m = np.maximum.reduce(s, axis=1, keepdims=True)
    e = np.exp(s - m)
    return m, e, np.add.reduce(e, axis=1, keepdims=True)


def _info_nce(z: np.ndarray, temperature: float):
    """InfoNCE on checked stacked views; returns (loss, grad), grad
    stacked like z."""
    norms = _row_norms(z)
    w = z / norms
    u, v = w
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
    g_w = np.empty_like(z)
    np.matmul(g_s, v, out=g_w[0])
    np.matmul(g_s.T, u, out=g_w[1])
    g_w /= temperature
    # undo the row normalization: project out the radial component
    return float(loss), (g_w - w * np.add.reduce(g_w * w, axis=-1, keepdims=True)) / norms


def _barlow_twins(z: np.ndarray, epsilon: float):
    """Barlow Twins on checked stacked views; returns (loss, grad), grad
    stacked like z."""
    centered, norms = _centered_columns(z)
    w = centered / norms
    a, b = w
    corr = a.T @ b
    idx = np.arange(corr.shape[0])
    diag = corr.diagonal()
    off = corr.copy()
    off[idx, idx] = 0.0
    loss = float(np.add.reduce((1.0 - diag) ** 2) + epsilon * np.add.reduce(off**2, axis=None))
    g_c = 2.0 * epsilon * corr
    g_c[idx, idx] = -2.0 * (1.0 - diag)
    g_w = np.empty_like(z)
    np.matmul(b, g_c.T, out=g_w[0])
    np.matmul(a, g_c, out=g_w[1])
    # undo the column normalization, then the centering
    return loss, _center((g_w - w * np.add.reduce(g_w * w, axis=-2, keepdims=True)) / norms)


def _ensemble(z, alpha: float, beta: float, temperature: float, epsilon: float):
    """Both losses on checked stacked views and their weighted sum;
    returns (loss, loss_gen, loss_dis, grad), grad stacked like z."""
    loss_gen, g_gen = _info_nce(z, temperature)
    loss_dis, g_dis = _barlow_twins(z, epsilon)
    return alpha * loss_gen + beta * loss_dis, loss_gen, loss_dis, alpha * g_gen + beta * g_dis


def info_nce(z1, z2, temperature: float = DEFAULT_TEMPERATURE):
    """Symmetric contrastive alignment loss.

    Matching rows across the two views are positives; every other
    cross-view row is a negative.  Each direction scores anchors with a
    temperature-scaled cosine softmax, and the two directions are
    averaged.  Returns (loss, (grad_z1, grad_z2)).
    """
    z = _check_pair(z1, z2)
    as_float("temperature", temperature, "positive")
    if (_row_norms(z) == 0.0).any():
        raise NormalizationError("a feature row has zero norm")
    loss, g = _info_nce(z, temperature)
    return loss, (g[0], g[1])


def barlow_twins(z1, z2, epsilon: float = DEFAULT_OFFDIAG_WEIGHT):
    """Redundancy-reduction loss on the cross-correlation matrix.

    Pulls the diagonal toward 1 and the off-diagonal toward 0, the
    latter weighted by epsilon.  Returns (loss, (grad_z1, grad_z2)).
    """
    z = _check_pair(z1, z2)
    as_float("epsilon", epsilon, "nonnegative")
    if (_centered_columns(z)[1] == 0.0).any():
        raise DegenerateFeatureError("a feature column has zero variance")
    loss, g = _barlow_twins(z, epsilon)
    return loss, (g[0], g[1])
