"""Contrastive and decorrelation losses: frozen values, closed forms,
and finite-difference gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evoloss import (
    DegenerateFeatureError,
    LossWeights,
    NormalizationError,
    ValidationError,
    barlow_twins,
    info_nce,
)
from evoloss.losses import (
    DEFAULT_OFFDIAG_WEIGHT,
    DEFAULT_TEMPERATURE,
    _ensemble,
    loss_workspace,
)

from helpers import reference_barlow_twins, reference_cross_correlation, reference_info_nce


def fd_grad(fn, z, h=1e-6):
    """Central finite differences of fn(z) -> scalar, elementwise in z."""
    g = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        zp = z.copy()
        zp[idx] += h
        zm = z.copy()
        zm[idx] -= h
        g[idx] = (fn(zp) - fn(zm)) / (2.0 * h)
    return g


def rel_err(numeric, analytic):
    return np.linalg.norm(numeric - analytic) / max(np.linalg.norm(analytic), 1e-12)


def test_loss_weights_validation():
    LossWeights(1.0, 0.0)
    LossWeights(0.0, 0.5)
    with pytest.raises(ValidationError):
        LossWeights(-0.1, 0.5)
    with pytest.raises(ValidationError):
        LossWeights(0.0, 0.0)
    with pytest.raises(ValidationError):
        LossWeights(math.nan, 1.0)


# ----------------------------------------------------------- contrastive


def test_info_nce_uniform_similarity_is_log_batch():
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    loss, _ = info_nce(z, z)
    assert abs(loss - math.log(2.0)) < 1e-12
    z4 = np.tile([2.0, 0.0, 0.0], (4, 1))
    loss4, _ = info_nce(z4, z4)
    assert abs(loss4 - math.log(4.0)) < 1e-12


def test_info_nce_orthonormal_closed_form():
    # identical orthonormal views: positives at cos 1, negatives at cos 0
    assert DEFAULT_TEMPERATURE == 0.07
    for n in (2, 8):
        z = np.eye(n)
        loss, _ = info_nce(z, z)
        expected = math.log1p((n - 1) * math.exp(-1.0 / DEFAULT_TEMPERATURE))
        assert abs(loss - expected) < 1e-12


def test_info_nce_scale_invariance(rng):
    z1 = rng.standard_normal((5, 3))
    z2 = rng.standard_normal((5, 3))
    loss, (g1, g2) = info_nce(z1, z2)
    loss_s, (g1_s, g2_s) = info_nce(2.0 * z1, 3.0 * z2)
    assert abs(loss - loss_s) < 1e-12
    # gradients pick up the inverse scale through the normalization
    np.testing.assert_allclose(g1_s, g1 / 2.0, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(g2_s, g2 / 3.0, rtol=1e-12, atol=1e-15)


def test_info_nce_permutation_equivariance(rng):
    z1 = rng.standard_normal((6, 4))
    z2 = rng.standard_normal((6, 4))
    perm = rng.permutation(6)
    loss, (g1, g2) = info_nce(z1, z2)
    loss_p, (g1_p, g2_p) = info_nce(z1[perm], z2[perm])
    assert abs(loss - loss_p) < 1e-12
    np.testing.assert_allclose(g1_p, g1[perm], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(g2_p, g2[perm], rtol=1e-12, atol=1e-15)


def test_info_nce_gradients_match_finite_differences(rng):
    for _ in range(5):
        z1 = rng.standard_normal((6, 3))
        z2 = rng.standard_normal((6, 3))
        _, (g1, g2) = info_nce(z1, z2)
        num1 = fd_grad(lambda z: info_nce(z, z2)[0], z1)
        num2 = fd_grad(lambda z: info_nce(z1, z)[0], z2)
        assert rel_err(num1, g1) < 1e-5
        assert rel_err(num2, g2) < 1e-5


def test_info_nce_validation(rng):
    z = rng.standard_normal((4, 3))
    bad = z.copy()
    bad[0, 0] = math.inf
    zero_row = z.copy()
    zero_row[2] = 0.0
    other_zero_row = z.copy()
    other_zero_row[1] = 0.0
    cases = [
        (z, z, {"temperature": 0.0}, ValidationError),
        (z, z[:3], {}, ValidationError),
        (z[:1], z[:1], {}, ValidationError),
        (z.ravel(), z.ravel(), {}, ValidationError),
        (bad, z, {}, ValidationError),
        (np.full_like(z, math.inf), z, {}, ValidationError),
        (zero_row, z, {}, NormalizationError),
        (other_zero_row, z, {}, NormalizationError),
    ]
    for z1, z2, knobs, error in cases:
        with pytest.raises(error):
            info_nce(z1, z2, **knobs)


# --------------------------------------------------------- decorrelation


def test_cross_correlation_identity_case():
    # centered orthogonal columns: the correlation matrix is exactly I
    z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    np.testing.assert_array_equal(reference_cross_correlation(z, z), np.eye(2))


def test_cross_correlation_bounds_and_sign(rng):
    z1 = rng.standard_normal((10, 4))
    z2 = rng.standard_normal((10, 4))
    corr = reference_cross_correlation(z1, z2)
    assert np.all(np.abs(corr) <= 1.0 + 1e-12)
    np.testing.assert_array_equal(reference_cross_correlation(z1, -z2), -corr)


def test_barlow_twins_zero_at_identity_correlation():
    z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    loss, (g1, g2) = barlow_twins(z, z)
    assert abs(loss) < 1e-10


def test_barlow_twins_fully_redundant_case(rng):
    # every column identical: all-ones correlation matrix, so the loss is
    # purely the off-diagonal penalty eps * d * (d - 1)
    assert DEFAULT_OFFDIAG_WEIGHT == 0.0051
    d, batch = 3, 8
    z = np.outer(rng.standard_normal(batch), np.ones(d))
    loss, _ = barlow_twins(z, z)
    assert abs(loss - DEFAULT_OFFDIAG_WEIGHT * d * (d - 1)) < 1e-10


def test_barlow_twins_epsilon_splits_terms(rng):
    z1 = rng.standard_normal((8, 4))
    z2 = rng.standard_normal((8, 4))
    corr = reference_cross_correlation(z1, z2)
    diag_term = float(np.sum((1.0 - np.diag(corr)) ** 2))
    off_term = float(np.sum(corr**2) - np.sum(np.diag(corr) ** 2))
    loss, _ = barlow_twins(z1, z2, epsilon=0.25)
    assert abs(loss - (diag_term + 0.25 * off_term)) < 1e-12
    loss0, _ = barlow_twins(z1, z2, epsilon=0.0)
    assert abs(loss0 - diag_term) < 1e-12


def test_barlow_twins_gradients_match_finite_differences(rng):
    for _ in range(5):
        z1 = rng.standard_normal((6, 3))
        z2 = rng.standard_normal((6, 3))
        _, (g1, g2) = barlow_twins(z1, z2)
        num1 = fd_grad(lambda z: barlow_twins(z, z2)[0], z1)
        num2 = fd_grad(lambda z: barlow_twins(z1, z)[0], z2)
        assert rel_err(num1, g1) < 1e-5
        assert rel_err(num2, g2) < 1e-5


def test_barlow_twins_validation(rng):
    z = rng.standard_normal((4, 3))
    constant_column = z.copy()
    constant_column[:, 2] = 1.5
    z6 = rng.standard_normal((6, 3))
    flat = z6.copy()
    flat[:, 1] = 4.2  # constant column has zero variance
    cases = [
        (z, z, {"epsilon": -0.1}, ValidationError),
        (z, z, {"epsilon": -1.0}, ValidationError),
        (z, z[:3], {}, ValidationError),
        (np.full_like(z, math.inf), z, {}, ValidationError),
        (z, constant_column, {}, DegenerateFeatureError),
        (flat, z6, {}, DegenerateFeatureError),
    ]
    for z1, z2, knobs, error in cases:
        with pytest.raises(error):
            barlow_twins(z1, z2, **knobs)


# ------------------------------------------------------- stacked kernels


@settings(max_examples=300, deadline=None)
@given(
    batch=st.integers(min_value=2, max_value=40),
    dim=st.integers(min_value=1, max_value=20),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    temperature=st.sampled_from([DEFAULT_TEMPERATURE, 0.5, 2.0]),
    epsilon=st.sampled_from([DEFAULT_OFFDIAG_WEIGHT, 0.0, 0.3]),
    weights=st.sampled_from([(0.5, 0.5), (0.9, 0.2), (1.0, 0.0), (1e-3, 1.0)]),
)
@example(batch=2, dim=1, log_scale=0.0, seed=0, temperature=DEFAULT_TEMPERATURE,
         epsilon=DEFAULT_OFFDIAG_WEIGHT, weights=(0.5, 0.5))
@example(batch=2, dim=8, log_scale=-3.0, seed=1, temperature=DEFAULT_TEMPERATURE,
         epsilon=DEFAULT_OFFDIAG_WEIGHT, weights=(0.5, 0.5))
@example(batch=32, dim=1, log_scale=3.0, seed=2, temperature=DEFAULT_TEMPERATURE,
         epsilon=DEFAULT_OFFDIAG_WEIGHT, weights=(0.5, 0.5))
def test_stacked_kernels_match_per_view_reference(
    batch, dim, log_scale, seed, temperature, epsilon, weights
):
    """The losses run both views as one stacked array; each loss and
    gradient equals, byte for byte, the same arithmetic on the two views
    as separate arrays.  Checked through the public functions and
    through the training loop's stacked buffer."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2 * batch, dim)) * 10.0**log_scale
    z1, z2 = z[:batch], z[batch:]
    gen, gi1, gi2 = reference_info_nce(z1, z2, temperature)
    dis, gb1, gb2 = reference_barlow_twins(z1, z2, epsilon)
    got_gen, (g1, g2) = info_nce(z1, z2, temperature)
    assert (got_gen, g1.tobytes(), g2.tobytes()) == (gen, gi1.tobytes(), gi2.tobytes())
    got_dis, (g1, g2) = barlow_twins(z1, z2, epsilon)
    assert (got_dis, g1.tobytes(), g2.tobytes()) == (dis, gb1.tobytes(), gb2.tobytes())
    alpha, beta = weights
    loss, loss_gen, loss_dis, g = _ensemble(
        z.reshape(2, batch, dim), alpha, beta, temperature, epsilon, loss_workspace(batch, dim)
    )
    assert (loss, loss_gen, loss_dis) == (alpha * gen + beta * dis, gen, dis)
    assert g[0].tobytes() == (alpha * gi1 + beta * gb1).tobytes()
    assert g[1].tobytes() == (alpha * gi2 + beta * gb2).tobytes()


def test_a_reused_workspace_keeps_nothing_from_the_previous_call(rng):
    """The training loop runs every step in one workspace: a second call
    on it, with other views and weights, equals the reference alone."""
    batch, dim = 6, 4
    work = loss_workspace(batch, dim)
    _ensemble(rng.standard_normal((2, batch, dim)) * 50.0, 0.9, 0.2, 0.5, 0.3, work)
    z = rng.standard_normal((2, batch, dim))
    alpha, beta = 1e-3, 1.0
    loss, loss_gen, loss_dis, g = _ensemble(
        z, alpha, beta, DEFAULT_TEMPERATURE, DEFAULT_OFFDIAG_WEIGHT, work
    )
    gen, gi1, gi2 = reference_info_nce(z[0], z[1], DEFAULT_TEMPERATURE)
    dis, gb1, gb2 = reference_barlow_twins(z[0], z[1], DEFAULT_OFFDIAG_WEIGHT)
    assert (loss, loss_gen, loss_dis) == (alpha * gen + beta * dis, gen, dis)
    assert g[0].tobytes() == (alpha * gi1 + beta * gb1).tobytes()
    assert g[1].tobytes() == (alpha * gi2 + beta * gb2).tobytes()


def test_public_losses_return_arrays_that_a_later_call_leaves_alone(rng):
    z1, z2 = rng.standard_normal((2, 5, 3))
    for loss_fn in (info_nce, barlow_twins):
        _, (g1, g2) = loss_fn(z1, z2)
        before = g1.tobytes(), g2.tobytes()
        loss_fn(3.0 * z2, z1 - 1.0)
        assert (g1.tobytes(), g2.tobytes()) == before
