"""Contrastive and decorrelation losses: frozen values, closed forms,
and finite-difference gradient checks."""

import math

import numpy as np
import pytest

from evoloss import (
    DegenerateFeatureError,
    LossWeights,
    NormalizationError,
    ValidationError,
    barlow_twins,
    cross_correlation,
    ensemble_loss,
    info_nce,
)
from evoloss.losses import DEFAULT_OFFDIAG_WEIGHT, DEFAULT_TEMPERATURE


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
    with pytest.raises(ValidationError):
        info_nce(z, z, temperature=0.0)
    with pytest.raises(ValidationError):
        info_nce(z, z[:3])
    with pytest.raises(ValidationError):
        info_nce(z[:1], z[:1])
    with pytest.raises(ValidationError):
        info_nce(z.ravel(), z.ravel())
    bad = z.copy()
    bad[0, 0] = math.inf
    with pytest.raises(ValidationError):
        info_nce(bad, z)
    zero_row = z.copy()
    zero_row[2] = 0.0
    with pytest.raises(NormalizationError):
        info_nce(zero_row, z)


# --------------------------------------------------------- decorrelation


def test_cross_correlation_identity_case():
    # centered orthogonal columns: the correlation matrix is exactly I
    z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    np.testing.assert_array_equal(cross_correlation(z, z), np.eye(2))


def test_cross_correlation_bounds_and_sign(rng):
    z1 = rng.standard_normal((10, 4))
    z2 = rng.standard_normal((10, 4))
    corr = cross_correlation(z1, z2)
    assert np.all(np.abs(corr) <= 1.0 + 1e-12)
    np.testing.assert_array_equal(cross_correlation(z1, -z2), -corr)


def test_cross_correlation_degenerate_column(rng):
    z1 = rng.standard_normal((6, 3))
    flat = z1.copy()
    flat[:, 1] = 4.2  # constant column has zero variance
    with pytest.raises(DegenerateFeatureError):
        cross_correlation(flat, z1)


def test_barlow_twins_zero_at_identity_correlation():
    z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    loss, (g1, g2) = barlow_twins(z, z)
    assert abs(loss) < 1e-10


def test_barlow_twins_fully_redundant_case(rng):
    # every column identical: all-ones correlation matrix, so the loss is
    # purely the off-diagonal penalty eps * d * (d - 1)
    d, batch = 3, 8
    z = np.outer(rng.standard_normal(batch), np.ones(d))
    loss, _ = barlow_twins(z, z)
    assert abs(loss - DEFAULT_OFFDIAG_WEIGHT * d * (d - 1)) < 1e-10


def test_barlow_twins_epsilon_splits_terms(rng):
    z1 = rng.standard_normal((8, 4))
    z2 = rng.standard_normal((8, 4))
    corr = cross_correlation(z1, z2)
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
    with pytest.raises(ValidationError):
        barlow_twins(z, z, epsilon=-0.1)


# -------------------------------------------------------------- ensemble


def test_ensemble_loss_is_exact_linear_combination(rng):
    """Bit for bit alpha * info_nce + beta * barlow_twins, losses and gradients."""
    cases = [
        ((6, 4), (0.35, 0.37), {}),
        ((2, 2), (1e-3, 1.0), {"temperature": 0.5, "epsilon": 0.0}),
        ((32, 8), (0.9, 0.2), {"temperature": DEFAULT_TEMPERATURE, "epsilon": DEFAULT_OFFDIAG_WEIGHT}),
        ((3, 5), (1.0, 0.0), {"temperature": 2.0, "epsilon": 0.3}),
    ]
    for shape, weights, knobs in cases:
        z1 = rng.standard_normal(shape)
        z2 = rng.standard_normal(shape)
        gen, (gi1, gi2) = info_nce(z1, z2, knobs.get("temperature", DEFAULT_TEMPERATURE))
        dis, (gb1, gb2) = barlow_twins(z1, z2, knobs.get("epsilon", DEFAULT_OFFDIAG_WEIGHT))
        w = LossWeights(*weights)
        loss, (g1, g2) = ensemble_loss(z1, z2, w, **knobs)
        assert loss == w.alpha * gen + w.beta * dis
        assert g1.tobytes() == (w.alpha * gi1 + w.beta * gb1).tobytes()
        assert g2.tobytes() == (w.alpha * gi2 + w.beta * gb2).tobytes()


def test_ensemble_loss_checks_like_its_components(rng):
    z = rng.standard_normal((4, 3))
    zero_row = z.copy()
    zero_row[1] = 0.0
    constant_column = z.copy()
    constant_column[:, 2] = 1.5
    cases = [
        (zero_row, z, {}, NormalizationError),
        (z, constant_column, {}, DegenerateFeatureError),
        (z, z, {"temperature": 0.0}, ValidationError),
        (z, z, {"epsilon": -1.0}, ValidationError),
        (z, z[:3], {}, ValidationError),
        (np.full_like(z, math.inf), z, {}, ValidationError),
    ]
    for z1, z2, knobs, error in cases:
        with pytest.raises(error):
            ensemble_loss(z1, z2, LossWeights(0.5, 0.5), **knobs)


def test_ensemble_loss_extreme_weights_reduce_to_components(rng):
    z1 = rng.standard_normal((5, 3))
    z2 = rng.standard_normal((5, 3))
    gen_only, (g1, _) = ensemble_loss(z1, z2, LossWeights(1.0, 0.0))
    gen, (gi1, _) = info_nce(z1, z2)
    assert gen_only == gen
    np.testing.assert_array_equal(g1, gi1)
    dis_only, _ = ensemble_loss(z1, z2, LossWeights(0.0, 1.0))
    dis, _ = barlow_twins(z1, z2)
    assert dis_only == dis


def test_ensemble_loss_accepts_bare_pairs(rng):
    z1 = rng.standard_normal((4, 3))
    z2 = rng.standard_normal((4, 3))
    a = ensemble_loss(z1, z2, LossWeights(0.5, 0.5))
    b = ensemble_loss(z1, z2, (0.5, 0.5))
    assert a[0] == b[0]


def test_ensemble_loss_custom_knobs_forwarded(rng):
    z1 = rng.standard_normal((4, 3))
    z2 = rng.standard_normal((4, 3))
    loss, _ = ensemble_loss(z1, z2, LossWeights(1.0, 1.0), temperature=0.5, epsilon=0.1)
    gen, _ = info_nce(z1, z2, temperature=0.5)
    dis, _ = barlow_twins(z1, z2, epsilon=0.1)
    assert loss == gen + dis
    assert DEFAULT_TEMPERATURE == 0.07 and DEFAULT_OFFDIAG_WEIGHT == 0.0051
