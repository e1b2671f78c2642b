"""Jacobian, det/trace classification, and the eigenvalue cross-check."""

import csv

import numpy as np
import pytest

from evoloss import (
    Equilibrium,
    PayoffParams,
    PopulationState,
    StabilityClass,
    ValidationError,
    classify,
    enumerate_equilibria,
    equilibria_table,
    jacobian,
    saddle_point,
    write_equilibria_csv,
)
from evoloss.stability import CORNERS

from helpers import classify_by_eigen, fd_jacobian, sample_saddle_params

#: corner-by-corner pattern for games with a strictly interior fixed point
EXPECTED_PATTERN = (
    StabilityClass.UNSTABLE_POINT,  # (0, 0)
    StabilityClass.STABLE_POINT,    # (0, 1)
    StabilityClass.STABLE_POINT,    # (1, 0)
    StabilityClass.UNSTABLE_POINT,  # (1, 1)
    StabilityClass.SADDLE_POINT,    # interior
)


def test_jacobian_fixture_corners(fixture_params):
    np.testing.assert_array_equal(
        jacobian(fixture_params, (0.0, 0.0)), [[2.5, 0.0], [0.0, 2.5]]
    )
    np.testing.assert_array_equal(
        jacobian(fixture_params, (0.0, 1.0)), [[-0.5, 0.0], [0.0, -2.5]]
    )
    np.testing.assert_array_equal(
        jacobian(fixture_params, (1.0, 0.0)), [[-2.5, 0.0], [0.0, -0.5]]
    )
    np.testing.assert_array_equal(
        jacobian(fixture_params, (1.0, 1.0)), [[0.5, 0.0], [0.0, 0.5]]
    )


def test_jacobian_fixture_saddle(fixture_params):
    j = jacobian(fixture_params, saddle_point(fixture_params))
    # diagonal vanishes at the interior fixed point
    assert abs(j[0, 0]) <= 1e-12 and abs(j[1, 1]) <= 1e-12
    # off-diagonal: -x(1-x)b = -y(1-y)e = -(5/6)(1/6)*3 = -5/12
    assert np.allclose([j[0, 1], j[1, 0]], -5.0 / 12.0, atol=1e-12)


def test_jacobian_matches_finite_differences(fixture_params, rng):
    for p in (fixture_params, sample_saddle_params(rng)):
        for _ in range(10):
            state = PopulationState(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            np.testing.assert_allclose(
                jacobian(p, state), fd_jacobian(p, state), atol=1e-6
            )


@pytest.mark.parametrize(
    "corner,det,trace,cls",
    [
        ((0.0, 0.0), 6.25, 5.0, StabilityClass.UNSTABLE_POINT),
        ((0.0, 1.0), 1.25, -3.0, StabilityClass.STABLE_POINT),
        ((1.0, 0.0), 1.25, -3.0, StabilityClass.STABLE_POINT),
        ((1.0, 1.0), 0.25, 1.0, StabilityClass.UNSTABLE_POINT),
    ],
)
def test_classify_fixture_corners(fixture_params, corner, det, trace, cls):
    eq = classify(fixture_params, corner)
    # the determinant goes through an LU factorization, so not bit-exact
    assert eq.det == pytest.approx(det, abs=1e-12)
    assert eq.trace == trace
    assert eq.cls is cls


def test_classify_fixture_saddle(fixture_params):
    eq = classify(fixture_params, saddle_point(fixture_params))
    assert eq.cls is StabilityClass.SADDLE_POINT
    assert eq.det == pytest.approx(-25.0 / 144.0, abs=1e-12)
    assert eq.trace == pytest.approx(0.0, abs=1e-12)


def test_classify_rejects_non_fixed_point(fixture_params):
    with pytest.raises(ValidationError, match="not a fixed point"):
        classify(fixture_params, (0.3, 0.4))


def test_classify_scales_the_fixed_point_check_with_the_coefficients():
    """At payoffs of 1e9 the field at the computed saddle rounds to
    -3.05e-07, which the absolute ZERO_TOL used to reject; a point off
    the saddle is still rejected."""
    p = PayoffParams(g1=1e9, d1=4e9, g2=7e9, d2=7e9, n1=7e9, n2=7e9)
    assert classify(p, saddle_point(p)).cls is StabilityClass.SADDLE_POINT
    with pytest.raises(ValidationError, match="not a fixed point"):
        classify(p, (0.2, 0.57))


def test_classify_stable_node():
    # gains chosen so (1,1) is attracting: J = diag(-1, -2) there
    p = PayoffParams(g1=3.0, d1=0.5, g2=0.5, d2=2.0, n1=0.0, n2=0.5)
    np.testing.assert_array_equal(jacobian(p, (1.0, 1.0)), [[-1.0, 0.0], [0.0, -2.0]])
    eq = classify(p, (1.0, 1.0))
    assert eq.cls is StabilityClass.STABLE_POINT
    assert classify_by_eigen(p, (1.0, 1.0)) is StabilityClass.STABLE_POINT


def test_classify_degenerate_game():
    dead = PayoffParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for corner in CORNERS:
        assert classify(dead, corner).cls is StabilityClass.DEGENERATE
        assert classify_by_eigen(dead, corner) is StabilityClass.DEGENERATE


def test_classify_agrees_with_eigen_oracle(rng):
    """det/trace signs and eigenvalue signs must classify identically."""
    for _ in range(200):
        p = sample_saddle_params(rng)
        for eq in enumerate_equilibria(p):
            assert classify_by_eigen(p, eq.point) is eq.cls


def test_enumerate_equilibria_fixture(fixture_params):
    eqs = enumerate_equilibria(fixture_params)
    assert [eq.cls for eq in eqs] == list(EXPECTED_PATTERN)
    assert eqs[4].point == saddle_point(fixture_params)


def test_enumerate_equilibria_without_interior_point():
    # fixed point out of the unit square: corners only
    p = PayoffParams(1.5, 1.0, 1.0, 1.5, n1=-1.5, n2=0.5)
    assert len(enumerate_equilibria(p)) == 4
    # degenerate game: corners only as well
    dead = PayoffParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert len(enumerate_equilibria(dead)) == 4


def test_equilibria_table_rendering(fixture_params):
    text = equilibria_table(enumerate_equilibria(fixture_params))
    lines = text.splitlines()
    assert len(lines) == 6
    assert lines[0].split() == ["x", "y", "det", "trace", "class"]
    assert "saddle" in lines[-1]
    assert "0.833333" in lines[-1]
    # aligned: all rows have equal width
    assert len({len(line) for line in lines}) == 1


def test_write_equilibria_csv_roundtrip(fixture_params, tmp_path):
    eqs = enumerate_equilibria(fixture_params)
    path = tmp_path / "eq.csv"
    write_equilibria_csv(eqs, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "det", "trace", "class"]
    assert len(rows) == 6
    for row, eq in zip(rows[1:], eqs):
        assert float(row[0]) == eq.point.x
        assert float(row[1]) == eq.point.y
        assert float(row[2]) == eq.det
        assert float(row[3]) == eq.trace
        assert row[4] == eq.cls.value


def test_equilibrium_is_plain_data(fixture_params):
    eq = classify(fixture_params, (0.0, 0.0))
    assert isinstance(eq, Equilibrium)
    assert eq.point == PopulationState(0.0, 0.0)
    with pytest.raises(AttributeError):
        eq.det = 1.0  # frozen
