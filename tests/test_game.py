"""Income matrices, replicator field, and the interior fixed point."""

import math

import numpy as np
import pytest

from evoloss import (
    DegenerateGameError,
    OutOfSimplexError,
    PayoffParams,
    PopulationState,
    ValidationError,
    check_state,
    field_coefficients,
    replicator_rhs,
    saddle_point,
)

from helpers import (
    expected_utility_dis,
    expected_utility_gen,
    income_matrix_dis,
    income_matrix_gen,
    sample_saddle_params,
)


def scaled(p: PayoffParams, s: float) -> PayoffParams:
    """Scale all payoff magnitudes, keeping the preference weights."""
    return PayoffParams(
        s * p.g1, s * p.d1, s * p.g2, s * p.d2, s * p.n1, s * p.n2, p.w1, p.w2
    )


def test_income_matrices_fixture(fixture_params):
    np.testing.assert_array_equal(
        income_matrix_gen(fixture_params), [[2.0, 2.5], [2.5, 0.0]]
    )
    np.testing.assert_array_equal(
        income_matrix_dis(fixture_params), [[2.0, 2.5], [2.5, 0.0]]
    )


def test_income_matrices_asymmetric_weights(fixture_params):
    heavy = PayoffParams(1.5, 1.0, 1.0, 1.5, 0.5, 0.5, w1=2.0, w2=1.0)
    np.testing.assert_array_equal(
        income_matrix_gen(heavy), [[3.0, 4.0], [3.5, 0.0]]
    )
    # the generalizability matrix ignores w2 entirely
    np.testing.assert_array_equal(
        income_matrix_gen(fixture_params),
        income_matrix_gen(PayoffParams(1.5, 1.0, 1.0, 1.5, 0.5, 0.5, w2=7.0)),
    )
    light = PayoffParams(1.5, 1.0, 1.0, 1.5, 0.5, 0.5, w1=1.0, w2=0.5)
    np.testing.assert_array_equal(
        income_matrix_dis(light), [[1.5, 1.75], [2.0, 0.0]]
    )


def test_expected_utility_fixture(fixture_params):
    u_coop, u_mean = expected_utility_gen(fixture_params, (0.5, 0.5))
    assert u_coop == 2.25
    assert u_mean == 1.75


def test_field_coefficients_fixture(fixture_params):
    assert field_coefficients(fixture_params) == (2.5, 3.0, 2.5, 3.0)


def test_replicator_rhs_fixture_values(fixture_params):
    assert replicator_rhs(fixture_params, (0.5, 0.5)) == (0.25, 0.25)
    for corner in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert replicator_rhs(fixture_params, corner) == (0.0, 0.0)
    dx, dy = replicator_rhs(fixture_params, saddle_point(fixture_params))
    assert abs(dx) <= 1e-12 and abs(dy) <= 1e-12


def test_rhs_matches_utility_advantage(fixture_params, rng):
    """dy/dt must equal y * (cooperator income - average income)."""
    for p in (fixture_params, sample_saddle_params(rng), sample_saddle_params(rng)):
        for _ in range(20):
            state = PopulationState(rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))
            _, dy = replicator_rhs(p, state)
            u_coop, u_mean = expected_utility_gen(p, state)
            assert math.isclose(dy, state.y * (u_coop - u_mean), rel_tol=1e-12, abs_tol=1e-15)


def test_rhs_x_matches_dis_utility_advantage(fixture_params, rng):
    """dx/dt must equal x * (cooperator income - average income) of the
    discriminability player, against the mix (y, 1 - y)."""
    for p in (fixture_params, sample_saddle_params(rng), sample_saddle_params(rng)):
        for _ in range(20):
            state = PopulationState(rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))
            dx, _ = replicator_rhs(p, state)
            u_coop, u_mean = expected_utility_dis(p, state)
            assert math.isclose(dx, state.x * (u_coop - u_mean), rel_tol=1e-12, abs_tol=1e-15)


def test_rhs_scale_covariance(fixture_params, rng):
    """Scaling all payoffs scales the field without moving its zeros."""
    p = sample_saddle_params(rng)
    for s in (0.25, 3.0, 17.5):
        q = scaled(p, s)
        for _ in range(10):
            state = PopulationState(rng.uniform(0, 1), rng.uniform(0, 1))
            dx, dy = replicator_rhs(p, state)
            sx, sy = replicator_rhs(q, state)
            # near a nullcline the subtraction a - b*y cancels, so allow an
            # absolute slack proportional to the field's magnitude scale
            assert math.isclose(sx, s * dx, rel_tol=1e-12, abs_tol=1e-12 * s)
            assert math.isclose(sy, s * dy, rel_tol=1e-12, abs_tol=1e-12 * s)
        sq, sp = saddle_point(q), saddle_point(p)
        assert math.isclose(sq.x, sp.x, rel_tol=1e-15)
        assert math.isclose(sq.y, sp.y, rel_tol=1e-15)


def test_saddle_point_fixture_exact(fixture_params):
    point = saddle_point(fixture_params)
    assert point == (2.5 / 3.0, 2.5 / 3.0)


def test_saddle_point_components(rng):
    for _ in range(25):
        p = sample_saddle_params(rng)
        a, b, c, e = field_coefficients(p)
        point = saddle_point(p)
        assert point.x == c / e
        assert point.y == a / b


def test_saddle_point_degenerate():
    dead = PayoffParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateGameError):
        saddle_point(dead)


def test_saddle_point_out_of_simplex(fixture_params):
    # a large enough transfer bonus for ensembling (n1 = -1.5 shrinks both
    # denominators to 1.0) pushes the fixed point to (2.5, 2.5), outside
    p = PayoffParams(1.5, 1.0, 1.0, 1.5, n1=-1.5, n2=0.5)
    with pytest.raises(OutOfSimplexError) as exc:
        saddle_point(p)
    assert exc.value.x == 2.5
    assert exc.value.y == 2.5


def test_check_state():
    s = check_state((0.25, 1))
    assert isinstance(s, PopulationState)
    assert s == (0.25, 1.0)
    with pytest.raises(ValidationError):
        check_state((1.01, 0.5))
    with pytest.raises(ValidationError):
        check_state((-0.01, 0.5))
    with pytest.raises(ValidationError):
        check_state((math.nan, 0.5))
