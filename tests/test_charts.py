import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rhochart.charts import EigenChart, eigen_matrix, eigenvalues, fit_chart
from rhochart.degeneracy import DegeneracyPattern

HALF_PI = math.pi / 2


def pat(*mults):
    return DegeneracyPattern.from_multiplicities(list(mults))


def test_n3_singleton_polar_formula():
    phi, theta = 0.6, 1.1
    values = eigenvalues(EigenChart(pattern=pat(1, 1, 1), angles=(phi, theta)))
    s, c = math.sin, math.cos
    expected = [s(theta) ** 2 * s(phi) ** 2, s(theta) ** 2 * c(phi) ** 2, c(theta) ** 2]
    assert np.allclose(values, expected, atol=1e-15)


def test_n3_degenerate_averaged():
    theta = 0.8
    values = eigenvalues(EigenChart(pattern=pat(2, 1), angles=(theta,)))
    assert values[0] == values[1]
    assert abs(values[0] - math.sin(theta) ** 2 / 2) < 1e-15
    assert abs(values[2] - math.cos(theta) ** 2) < 1e-15
    # the mirrored pattern shares the lower class mass instead
    values = eigenvalues(EigenChart(pattern=pat(1, 2), angles=(theta,)))
    assert abs(values[0] - math.sin(theta) ** 2) < 1e-15
    assert values[1] == values[2]
    assert abs(values[1] - math.cos(theta) ** 2 / 2) < 1e-15


def test_fully_degenerate_is_maximally_mixed():
    for n in range(1, 6):
        values = eigenvalues(EigenChart(pattern=pat(n), angles=()))
        assert values == [1.0 / n] * n


def test_eigen_matrix_boundaries():
    m = eigen_matrix(EigenChart(pattern=pat(2, 1), angles=(0.0,)))
    assert np.allclose(m, np.diag([0.0, 0.0, 1.0]), atol=0)
    m = eigen_matrix(EigenChart(pattern=pat(1, 1, 1), angles=(HALF_PI, HALF_PI)))
    assert np.allclose(np.diagonal(m), [1.0, 0.0, 0.0], atol=1e-30)


def test_angle_count_validation():
    with pytest.raises(ValueError):
        EigenChart(pattern=pat(2, 1), angles=(0.1, 0.2))
    with pytest.raises(ValueError):
        EigenChart(pattern=pat(1, 1, 1), angles=(0.1, 4.0))


def test_fit_chart_golden():
    chart = fit_chart([0.25, 0.25, 0.5], pat(2, 1))
    assert abs(chart.angles[0] - math.pi / 4) < 1e-15
    assert np.allclose(eigenvalues(chart), [0.25, 0.25, 0.5], atol=1e-15)


def test_fit_chart_uniform_spectrum():
    chart = fit_chart([0.25] * 4, pat(4))
    assert chart.angles == ()


def test_fit_chart_rejections():
    with pytest.raises(ValueError):
        fit_chart([0.5, 0.6, -0.1], pat(1, 1, 1))
    with pytest.raises(ValueError):
        fit_chart([0.5, 0.4, 0.2], pat(1, 1, 1))
    with pytest.raises(ValueError):
        fit_chart([0.5, 0.3, 0.2], pat(2, 1))


angles_strategy = st.floats(min_value=0.0, max_value=HALF_PI, allow_nan=False)


@st.composite
def chart_strategy(draw):
    mults = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5))
    pattern = DegeneracyPattern.from_multiplicities(mults)
    angles = tuple(draw(angles_strategy) for _ in range(pattern.num_classes - 1))
    return EigenChart(pattern=pattern, angles=angles)


@given(chart_strategy())
def test_simplex_invariants(chart):
    values = eigenvalues(chart)
    assert abs(sum(values) - 1.0) <= 1e-15
    assert min(values) >= 0.0
    for cls in chart.pattern.classes:
        members = {values[i - 1] for i in cls}
        assert len(members) == 1  # bitwise equal inside a class


@given(chart_strategy())
def test_fit_round_trip(chart):
    values = eigenvalues(chart)
    again = eigenvalues(fit_chart(values, chart.pattern))
    assert max(abs(a - b) for a, b in zip(values, again)) < 1e-12


def test_jacobian_rank_of_eigenvalue_map():
    # finite-difference oracle: the chart is an immersion at interior points
    rng = np.random.default_rng(11)
    step = 1e-6
    for mults in [(1, 1, 1), (2, 1), (2, 2, 1), (3, 2)]:
        pattern = pat(*mults)
        k = pattern.num_classes
        if k == 1:
            continue
        for _ in range(3):
            angles = rng.uniform(0.2, HALF_PI - 0.2, size=k - 1)
            cols = []
            for t in range(k - 1):
                plus, minus = angles.copy(), angles.copy()
                plus[t] += step
                minus[t] -= step
                fp = eigenvalues(EigenChart(pattern=pattern, angles=tuple(plus)))
                fm = eigenvalues(EigenChart(pattern=pattern, angles=tuple(minus)))
                cols.append((np.asarray(fp) - np.asarray(fm)) / (2 * step))
            sv = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
            assert int(np.sum(sv > 1e-7 * sv[0])) == k - 1
