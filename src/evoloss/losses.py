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

from ._kernels import _ONE, _read_only
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
# and a workspace made with a valid temperature/epsilon.  The training
# loop calls them directly, once its inputs are checked.  A stacked
# elementwise operation or reduction rounds each view exactly as the
# same call on that view alone.
#
# Every intermediate is written into a loss_workspace, made once per
# batch shape, so that a training step allocates no array.  The ufuncs
# and their order are those of the allocating expressions, and each
# buffer has the layout numpy would give the temporary it replaces, so
# the results are the same bit for bit.  As in _kernels, every constant
# operand is a read-only 0-d array made once, the ufuncs and the product
# are looked up once, and out, axis and keepdims are given positionally.
#
# The products go through np.dot, not np.matmul.  On 1-D and 2-D float
# operands both make the same BLAS call, so the bits are the same, but
# matmul is a gufunc and its dispatch costs 0.2-1.0 us more a call at a
# training step's sizes.  np.dot is called as the method ndarray.dot, the
# same C function without np.dot's __array_function__ dispatch, which
# costs another 0.15-0.2 us.  np.dot is not matmul on arrays of 3 or
# more dimensions: it sums over the last axis of a and the second-to-last
# of b, pairing every stack of a with every stack of b.  A lane axis that
# stacks these products must use np.matmul and check each slice's bits
# against np.dot.

_add, _subtract, _multiply, _divide = np.add, np.subtract, np.multiply, np.divide
_matmul, _sqrt, _exp, _log, _square = np.ndarray.dot, np.sqrt, np.exp, np.log, np.square
_add_reduce, _max_reduce = np.add.reduce, np.maximum.reduce
_MINUS_TWO = _read_only(-2.0)


def loss_workspace(batch: int, dim: int, temperature: float = DEFAULT_TEMPERATURE,
                   epsilon: float = DEFAULT_OFFDIAG_WEIGHT) -> SimpleNamespace:
    """Buffers for _info_nce and _barlow_twins on a (2, batch, dim) z,
    with their operands as read-only 0-d arrays: the batch size count,
    two_n = 2.0 * batch, temperature, epsilon and two_epsilon = 2.0 *
    epsilon.

    The gradient each kernel returns lives in the workspace and is
    overwritten by the kernel's next call on it.
    """
    views, rows = (2, batch, dim), (batch, batch)
    work = SimpleNamespace(
        count=_read_only(batch),
        two_n=_read_only(2.0 * batch),
        temperature=_read_only(temperature),
        epsilon=_read_only(epsilon),
        two_epsilon=_read_only(2.0 * epsilon),
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
    _multiply(z, z, work.prod)
    norms = work.row_norms
    return _sqrt(_add_reduce(work.prod, -1, None, norms, True), norms)


def _center(z: np.ndarray, work, out: np.ndarray) -> np.ndarray:
    """Each column of z minus its mean over the batch, into out."""
    mean = _add_reduce(z, -2, None, work.col_means, True)
    _divide(mean, work.count, mean)
    return _subtract(z, mean, out)


def _column_norms(z: np.ndarray, work) -> np.ndarray:
    """The norm of each centered column; work.centered holds z centered."""
    centered = _center(z, work, work.centered)
    _multiply(centered, centered, work.prod)
    norms = work.col_norms
    return _sqrt(_add_reduce(work.prod, -2, None, norms, True), norms)


def _exp_rows(s: np.ndarray, m: np.ndarray, e: np.ndarray, r: np.ndarray) -> None:
    """Row maxima into m, exp(s - m) into e and its row sums into r: what
    the row-wise logsumexp, m + log(r), and the softmax, e / r, share."""
    _max_reduce(s, 1, None, m, True)
    _exp(_subtract(s, m, e), e)
    _add_reduce(e, 1, None, r, True)


def _mean_nll(m: np.ndarray, r: np.ndarray, diag: np.ndarray, work) -> float:
    """Mean over rows of the logsumexp m + log(r) minus the positive's score."""
    lse = _add(m, _log(r, work.lse), work.lse)[:, 0]
    return _add_reduce(_subtract(lse, diag, lse)) / len(lse)


def _info_nce(z: np.ndarray, norms: np.ndarray, work):
    """InfoNCE on checked stacked views and their _row_norms, at
    work.temperature; returns (loss, grad), grad stacked like z and held
    in work."""
    w = _divide(z, norms, work.w)
    u, v = w
    s = _divide(_matmul(u, v.T, work.s), work.temperature, work.s)
    e1, e2 = work.e1, work.e2
    _exp_rows(s, work.m1, e1, work.r1)
    _exp_rows(s.T, work.m2, e2, work.r2)
    loss = 0.5 * (_mean_nll(work.m1, work.r1, work.s_diag, work)
                  + _mean_nll(work.m2, work.r2, work.s_diag, work))
    # softmax of each direction minus the one-hot positives
    _divide(e1, work.r1, e1)
    _subtract(work.e1_diag, _ONE, work.e1_diag)
    _divide(e2, work.r2, e2)
    _subtract(work.e2_diag, _ONE, work.e2_diag)
    g_s = _divide(_add(e1, e2.T, e1), work.two_n, e1)
    g_w = work.g_info
    _matmul(g_s, v, g_w[0])
    _matmul(g_s.T, u, g_w[1])
    _divide(g_w, work.temperature, g_w)
    # undo the row normalization: project out the radial component
    _multiply(g_w, w, work.prod)
    dots = _add_reduce(work.prod, -1, None, work.row_dots, True)
    _subtract(g_w, _multiply(w, dots, work.prod), g_w)
    return float(loss), _divide(g_w, norms, g_w)


def _barlow_twins(z: np.ndarray, norms: np.ndarray, work):
    """Barlow Twins on checked stacked views and their _column_norms, at
    work.epsilon, with work.centered as _column_norms left it; returns
    (loss, grad), grad stacked like z and held in work."""
    w = _divide(work.centered, norms, work.centered)
    a, b = w
    corr = _matmul(a.T, b, work.corr)
    one_minus = _subtract(_ONE, work.corr_diag, work.one_minus)
    # corr**2 with a zero diagonal: the off-diagonal terms
    sq = _multiply(corr, corr, work.sq)
    work.sq_diag[...] = 0.0
    loss = float(_add_reduce(_square(one_minus, work.one_minus_sq))
                 + work.epsilon * _add_reduce(sq, None))
    g_c = _multiply(work.two_epsilon, corr, work.g_c)
    _multiply(_MINUS_TWO, one_minus, work.g_c_diag)
    g_w = work.g_barlow
    _matmul(b, g_c.T, g_w[0])
    _matmul(a, g_c, g_w[1])
    # undo the column normalization, then the centering
    _multiply(g_w, w, work.prod)
    dots = _add_reduce(work.prod, -2, None, work.col_dots, True)
    _subtract(g_w, _multiply(w, dots, work.prod), g_w)
    return loss, _center(_divide(g_w, norms, g_w), work, g_w)


def _ensemble(z, alpha: float, beta: float, work):
    """Both losses on checked stacked views and their weighted sum;
    returns (loss, loss_gen, loss_dis, grad), grad stacked like z and
    held in work."""
    loss_gen, g_gen = _info_nce(z, _row_norms(z, work), work)
    loss_dis, g_dis = _barlow_twins(z, _column_norms(z, work), work)
    g = _add(_multiply(alpha, g_gen, g_gen), _multiply(beta, g_dis, g_dis), g_gen)
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
    work = loss_workspace(*z.shape[1:], temperature=temperature)
    with raising("info_nce"):
        norms = _row_norms(z, work)
        if (norms == 0.0).any():
            raise NormalizationError("a feature row has zero norm")
        loss, g = _info_nce(z, norms, work)
    return loss, (g[0], g[1])


def barlow_twins(z1, z2, epsilon: float = DEFAULT_OFFDIAG_WEIGHT):
    """Redundancy-reduction loss on the cross-correlation matrix.

    Pulls the diagonal toward 1 and the off-diagonal toward 0, the
    latter weighted by epsilon.  Returns (loss, (grad_z1, grad_z2)).
    """
    z = _check_pair(z1, z2)
    epsilon = as_float("epsilon", epsilon, "nonnegative")
    work = loss_workspace(*z.shape[1:], epsilon=epsilon)
    with raising("barlow_twins"):
        norms = _column_norms(z, work)
        if (norms == 0.0).any():
            raise DegenerateFeatureError("a feature column has zero variance")
        loss, g = _barlow_twins(z, norms, work)
    return loss, (g[0], g[1])
