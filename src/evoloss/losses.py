"""Two-view representation losses with analytic gradients.

Every loss takes two feature batches of shape (batch, dim) — one row
per sample, matching rows are views of the same input — and returns
``(loss, (grad_z1, grad_z2))`` so callers can chain into an encoder
without autodiff.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateFeatureError, NormalizationError, ValidationError
from .errors import as_array, as_float, raising

#: Softmax temperature applied to pairwise cosine similarities.
DEFAULT_TEMPERATURE = 0.07
#: Weight of the off-diagonal (redundancy) terms in the decorrelation loss.
DEFAULT_OFFDIAG_WEIGHT = 0.0051


@dataclass(frozen=True)
class LossWeights:
    """Nonnegative mixing weights for the combined objective, as floats."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, as_float(name, getattr(self, name), "nonnegative"))
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ValidationError("loss weights must not both be zero")


def _check_pair(z1, z2) -> np.ndarray:
    """The two views, checked, stacked into one (2, batch, dim) array."""
    z1 = as_array("z1", z1, (None, None))
    if z1.shape[0] < 2 or z1.shape[1] < 1:
        raise ValidationError(f"z1 must have at least 2 rows and 1 column, got {z1.shape}")
    return np.stack((z1, as_array("z2", z2, z1.shape)))


# The kernels below take both views stacked into one (2, batch, dim)
# array z, so that each per-view operation is one numpy call, and they
# assume checked input: finite, no zero-norm row, no constant column,
# and a valid temperature/epsilon.  The training loop calls them
# directly, once its inputs are checked.  A stacked elementwise
# operation or reduction rounds each view exactly as the same call on
# that view alone.
#
# Every intermediate is written with out= into a loss_workspace, made
# once per batch shape, so that a training step allocates no array.  The
# ufuncs and their order are those of the allocating expressions, and
# each buffer has the layout numpy would give the temporary it
# replaces, so the results are the same bit for bit.


def loss_workspace(batch: int, dim: int) -> SimpleNamespace:
    """Buffers for _info_nce and _barlow_twins on a (2, batch, dim) z.

    The gradient each kernel returns lives in the workspace and is
    overwritten by the kernel's next call on it.
    """
    views, rows = (2, batch, dim), (batch, batch)
    work = SimpleNamespace(
        # InfoNCE: row norms, unit rows w, similarities s and both
        # directions' softmax parts; e1 becomes the gradient of s
        prod=np.empty(views),
        row_norms=np.empty((2, batch, 1)),
        w=np.empty(views),
        s=np.empty(rows),
        m1=np.empty((batch, 1)),
        r1=np.empty((batch, 1)),
        e1=np.empty(rows),
        m2=np.empty((batch, 1)),
        r2=np.empty((batch, 1)),
        # exp(s.T - m2) is F-ordered, as numpy allocates it; r2's
        # summation order follows that layout
        e2=np.empty(rows).T,
        lse=np.empty((batch, 1)),
        row_dots=np.empty((2, batch, 1)),
        g_info=np.empty(views),
        # Barlow Twins: column means and norms, unit centered columns,
        # the cross-correlation and its gradient
        col_means=np.empty((2, 1, dim)),
        col_norms=np.empty((2, 1, dim)),
        centered=np.empty(views),
        corr=np.empty((dim, dim)),
        sq=np.empty((dim, dim)),
        g_c=np.empty((dim, dim)),
        one_minus=np.empty(dim),
        one_minus_sq=np.empty(dim),
        col_dots=np.empty((2, 1, dim)),
        g_barlow=np.empty(views),
    )
    # writable views of the diagonals, in place of fancy indexing; a
    # square matrix and its transpose share their diagonal
    for name in ("s", "e1", "e2", "corr", "sq", "g_c"):
        buf = getattr(work, name)
        c_buf = buf.T if name == "e2" else buf
        setattr(work, name + "_diag", c_buf.reshape(-1)[:: len(buf) + 1])
    return work


def _row_norms(z: np.ndarray, work) -> np.ndarray:
    np.multiply(z, z, out=work.prod)
    return np.sqrt(np.add.reduce(work.prod, axis=-1, keepdims=True, out=work.row_norms),
                   out=work.row_norms)


def _center(z: np.ndarray, work, out: np.ndarray) -> np.ndarray:
    """Each column of z minus its mean over the batch, into out."""
    mean = np.add.reduce(z, axis=-2, keepdims=True, out=work.col_means)
    np.divide(mean, z.shape[-2], out=mean)
    return np.subtract(z, mean, out=out)


def _column_norms(z: np.ndarray, work) -> np.ndarray:
    """The norm of each centered column; work.centered holds z centered."""
    centered = _center(z, work, work.centered)
    np.multiply(centered, centered, out=work.prod)
    return np.sqrt(np.add.reduce(work.prod, axis=-2, keepdims=True, out=work.col_norms),
                   out=work.col_norms)


def _exp_rows(s: np.ndarray, m: np.ndarray, e: np.ndarray, r: np.ndarray) -> None:
    """Row maxima into m, exp(s - m) into e and its row sums into r: what
    the row-wise logsumexp, m + log(r), and the softmax, e / r, share."""
    np.maximum.reduce(s, axis=1, keepdims=True, out=m)
    np.exp(np.subtract(s, m, out=e), out=e)
    np.add.reduce(e, axis=1, keepdims=True, out=r)


def _mean_nll(m: np.ndarray, r: np.ndarray, diag: np.ndarray, work) -> float:
    """Mean over rows of the logsumexp m + log(r) minus the positive's score."""
    lse = np.add(m, np.log(r, out=work.lse), out=work.lse)[:, 0]
    return np.add.reduce(np.subtract(lse, diag, out=lse)) / len(lse)


def _info_nce(z: np.ndarray, norms: np.ndarray, temperature: float, work):
    """InfoNCE on checked stacked views and their _row_norms; returns
    (loss, grad), grad stacked like z and held in work."""
    w = np.divide(z, norms, out=work.w)
    u, v = w
    s = np.divide(np.matmul(u, v.T, out=work.s), temperature, out=work.s)
    n = s.shape[0]
    e1, e2 = work.e1, work.e2
    _exp_rows(s, work.m1, e1, work.r1)
    _exp_rows(s.T, work.m2, e2, work.r2)
    loss = 0.5 * (_mean_nll(work.m1, work.r1, work.s_diag, work)
                  + _mean_nll(work.m2, work.r2, work.s_diag, work))
    # softmax of each direction minus the one-hot positives
    np.divide(e1, work.r1, out=e1)
    np.subtract(work.e1_diag, 1.0, out=work.e1_diag)
    np.divide(e2, work.r2, out=e2)
    np.subtract(work.e2_diag, 1.0, out=work.e2_diag)
    g_s = np.divide(np.add(e1, e2.T, out=e1), 2.0 * n, out=e1)
    g_w = work.g_info
    np.matmul(g_s, v, out=g_w[0])
    np.matmul(g_s.T, u, out=g_w[1])
    np.divide(g_w, temperature, out=g_w)
    # undo the row normalization: project out the radial component
    np.multiply(g_w, w, out=work.prod)
    dots = np.add.reduce(work.prod, axis=-1, keepdims=True, out=work.row_dots)
    np.subtract(g_w, np.multiply(w, dots, out=work.prod), out=g_w)
    return float(loss), np.divide(g_w, norms, out=g_w)


def _barlow_twins(z: np.ndarray, norms: np.ndarray, epsilon: float, work):
    """Barlow Twins on checked stacked views and their _column_norms,
    with work.centered as _column_norms left it; returns (loss, grad),
    grad stacked like z and held in work."""
    w = np.divide(work.centered, norms, out=work.centered)
    a, b = w
    corr = np.matmul(a.T, b, out=work.corr)
    one_minus = np.subtract(1.0, work.corr_diag, out=work.one_minus)
    # corr**2 with a zero diagonal: the off-diagonal terms
    sq = np.multiply(corr, corr, out=work.sq)
    work.sq_diag[...] = 0.0
    loss = float(np.add.reduce(np.square(one_minus, out=work.one_minus_sq))
                 + epsilon * np.add.reduce(sq, axis=None))
    g_c = np.multiply(2.0 * epsilon, corr, out=work.g_c)
    np.multiply(-2.0, one_minus, out=work.g_c_diag)
    g_w = work.g_barlow
    np.matmul(b, g_c.T, out=g_w[0])
    np.matmul(a, g_c, out=g_w[1])
    # undo the column normalization, then the centering
    np.multiply(g_w, w, out=work.prod)
    dots = np.add.reduce(work.prod, axis=-2, keepdims=True, out=work.col_dots)
    np.subtract(g_w, np.multiply(w, dots, out=work.prod), out=g_w)
    return loss, _center(np.divide(g_w, norms, out=g_w), work, g_w)


def _ensemble(z, alpha: float, beta: float, temperature: float, epsilon: float, work):
    """Both losses on checked stacked views and their weighted sum;
    returns (loss, loss_gen, loss_dis, grad), grad stacked like z and
    held in work."""
    loss_gen, g_gen = _info_nce(z, _row_norms(z, work), temperature, work)
    loss_dis, g_dis = _barlow_twins(z, _column_norms(z, work), epsilon, work)
    g = np.add(np.multiply(alpha, g_gen, out=g_gen), np.multiply(beta, g_dis, out=g_dis),
               out=g_gen)
    return alpha * loss_gen + beta * loss_dis, loss_gen, loss_dis, g


def info_nce(z1, z2, temperature: float = DEFAULT_TEMPERATURE):
    """Symmetric contrastive alignment loss.

    Matching rows across the two views are positives; every other
    cross-view row is a negative.  Each direction scores anchors with a
    temperature-scaled cosine softmax, and the two directions are
    averaged.  Returns (loss, (grad_z1, grad_z2)).
    """
    z = _check_pair(z1, z2)
    temperature = as_float("temperature", temperature, "positive")
    work = loss_workspace(*z.shape[1:])
    with raising("info_nce"):
        norms = _row_norms(z, work)
        if (norms == 0.0).any():
            raise NormalizationError("a feature row has zero norm")
        loss, g = _info_nce(z, norms, temperature, work)
    return loss, (g[0], g[1])


def barlow_twins(z1, z2, epsilon: float = DEFAULT_OFFDIAG_WEIGHT):
    """Redundancy-reduction loss on the cross-correlation matrix.

    Pulls the diagonal toward 1 and the off-diagonal toward 0, the
    latter weighted by epsilon.  Returns (loss, (grad_z1, grad_z2)).
    """
    z = _check_pair(z1, z2)
    epsilon = as_float("epsilon", epsilon, "nonnegative")
    work = loss_workspace(*z.shape[1:])
    with raising("barlow_twins"):
        norms = _column_norms(z, work)
        if (norms == 0.0).any():
            raise DegenerateFeatureError("a feature column has zero variance")
        loss, g = _barlow_twins(z, norms, epsilon, work)
    return loss, (g[0], g[1])
