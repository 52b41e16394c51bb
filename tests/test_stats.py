import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlab.stats import (
    format_p,
    regularized_incomplete_beta,
    stabilized_window,
    student_t_sf,
    welch_t_test,
)
from langlab.training import MetricSeries


# ------------------------------------------------------------------- oracle
#
# Independent two-sided tail probability by direct numerical integration of
# the t-density: p = 2 * integral_{|t|}^{inf} f(x; df) dx, integrated with
# Simpson's rule after the substitution x = |t| + u / (1 - u), u in [0, 1).


def t_density(x, df):
    log_c = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
             - 0.5 * math.log(df * math.pi))
    return math.exp(log_c - ((df + 1) / 2) * math.log1p(x * x / df))


def quadrature_two_sided_p(t, df, panels=4000):
    a = abs(t)
    total = 0.0
    h = 1.0 / panels
    for i in range(panels):
        u0, u2 = i * h, (i + 1) * h
        u1 = (u0 + u2) / 2

        def g(u):
            if u >= 1.0:
                return 0.0
            x = a + u / (1.0 - u)
            return t_density(x, df) / (1.0 - u) ** 2

        total += (g(u0) + 4 * g(u1) + g(u2)) * h / 6
    return min(1.0, 2 * total)


# ------------------------------------------------------------------ fixtures


def test_identical_groups():
    r = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.t == 0.0
    assert r.p_two_sided == 1.0


def test_hand_computed_fixture():
    r = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert abs(r.t - (-1.0)) < 1e-9
    assert abs(r.df - 8.0) < 1e-9
    assert r.n1 == r.n2 == 5
    assert abs(r.var1 - 2.5) < 1e-12 and abs(r.var2 - 2.5) < 1e-12


def test_fixture_p_matches_quadrature():
    r = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert abs(r.p_two_sided - quadrature_two_sided_p(r.t, r.df)) < 1e-6


def test_cohen_d_identical_groups():
    assert welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).cohen_d == 0.0


def test_cohen_d_hand_value():
    # means 3 and 4, both variances 2.5, n=5: d = -1/sqrt(2.5)
    d = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6]).cohen_d
    assert abs(d - (-0.6324555320336759)) < 1e-12


def test_cohen_d_sign_matches_t_sweep():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2), size=8).tolist()
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2), size=11).tolist()
        r = welch_t_test(a, b)
        assert math.copysign(1, r.cohen_d) == math.copysign(1, r.t) or r.t == 0


# -------------------------------------------------------------------- errors


def test_too_few_samples():
    with pytest.raises(ValueError, match="at least 2"):
        welch_t_test([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="at least 2"):
        welch_t_test([1.0, 2.0], [3.0])


def test_degenerate_equal_not_an_error():
    r = welch_t_test([2.0, 2.0, 2.0], [2.0, 2.0])
    assert (r.t, r.p_two_sided, r.cohen_d) == (0.0, 1.0, 0.0)


def test_zero_variance_unequal_means_rejected():
    with pytest.raises(ValueError, match="zero variance"):
        welch_t_test([1.0, 1.0], [2.0, 2.0])


def test_sf_rejects_nonpositive_df():
    with pytest.raises(ValueError, match="df"):
        student_t_sf(1.0, 0.0)


# --------------------------------------------------------------- t-dist tail


def test_sf_at_zero_is_one():
    for df in (1, 2.5, 10, 300):
        assert student_t_sf(0.0, df) == 1.0


def test_sf_normal_limit():
    assert abs(student_t_sf(1.96, 1e6) - 0.05) < 1e-3


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("df", [3.0, 8.0, 30.0, 300.0])
def test_sf_matches_quadrature(t, df):
    assert abs(student_t_sf(t, df) - quadrature_two_sided_p(t, df)) < 1e-6


def test_sf_symmetric_in_sign():
    for t in (0.3, 1.7, 4.2):
        assert student_t_sf(t, 7.0) == student_t_sf(-t, 7.0)


def test_sf_monotone_decreasing_in_abs_t():
    for df in (2.0, 9.5, 120.0):
        values = [student_t_sf(t, df) for t in np.linspace(0, 8, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_incomplete_beta_edges_and_symmetry():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    for a, b, x in ((0.5, 0.5, 0.3), (4.0, 2.0, 0.7), (10.0, 10.0, 0.5)):
        left = regularized_incomplete_beta(a, b, x)
        right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert abs(left - right) < 1e-12
    with pytest.raises(ValueError):
        regularized_incomplete_beta(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 2.0, 1.5)


def test_incomplete_beta_analytic_case():
    # I_x(1, 1) = x and I_x(1, b) = 1 - (1-x)^b
    for x in (0.1, 0.42, 0.9):
        assert abs(regularized_incomplete_beta(1, 1, x) - x) < 1e-12
        assert abs(regularized_incomplete_beta(1, 3, x) - (1 - (1 - x) ** 3)) < 1e-12


# ----------------------------------------------------------------- properties


samples = st.lists(st.floats(-50, 50), min_size=3, max_size=20)


@settings(max_examples=150, deadline=None)
@given(a=samples, b=samples)
def test_antisymmetry(a, b):
    try:
        fwd = welch_t_test(a, b)
        rev = welch_t_test(b, a)
    except ValueError:
        return  # degenerate zero-variance draws
    assert fwd.t == pytest.approx(-rev.t, abs=1e-12)
    assert fwd.cohen_d == pytest.approx(-rev.cohen_d, abs=1e-12)
    assert fwd.df == pytest.approx(rev.df, abs=1e-12)
    assert fwd.p_two_sided == pytest.approx(rev.p_two_sided, abs=1e-12)


# A power-of-two c and samples that are 0 or at least 1e-300 in magnitude keep
# every c * x exact; a rounded product (0.5 * 5e-324 == 0.0) changes the data.
exact_samples = st.lists(st.just(0.0) | st.floats(1e-300, 50) | st.floats(-50, -1e-300),
                         min_size=3, max_size=20)


@settings(max_examples=150, deadline=None)
@given(a=exact_samples, b=exact_samples, c=st.integers(-6, 6).map(lambda e: 2.0 ** e))
def test_positive_scaling_invariance(a, b, c):
    try:
        base = welch_t_test(a, b)
        scaled = welch_t_test([c * x for x in a], [c * x for x in b])
    except ValueError:
        return
    assert scaled.t == pytest.approx(base.t, abs=1e-12, rel=1e-12)
    assert scaled.df == pytest.approx(base.df, abs=1e-12, rel=1e-12)
    assert scaled.p_two_sided == pytest.approx(base.p_two_sided, abs=1e-12, rel=1e-12)
    assert scaled.cohen_d == pytest.approx(base.cohen_d, abs=1e-12, rel=1e-12)


def test_df_equals_pooled_when_se_match():
    # equal variances and equal n make s1^2/n1 == s2^2/n2
    r = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert r.df == pytest.approx(r.n1 + r.n2 - 2, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(a=samples, b=samples)
def test_df_bounds(a, b):
    try:
        r = welch_t_test(a, b)
    except ValueError:
        return
    assert min(r.n1, r.n2) - 1 <= r.df + 1e-9
    assert r.df <= r.n1 + r.n2 - 2 + 1e-9
    assert 0.0 <= r.p_two_sided <= 1.0


# ------------------------------------------------------------------- window


def make_series(n):
    series = MetricSeries(group="g", arch="transformer", seed=0)
    for i in range(n):
        series.append(i + 1, 1.0 + i, 0.1)
    return series


def test_window_half_of_hundred():
    values = stabilized_window(make_series(100), 0.5, "loss")
    assert len(values) == 50
    assert values[0] == 1.0 + 50


def test_window_fraction_zero_is_whole_series():
    assert len(stabilized_window(make_series(10), 0.0, "loss")) == 10


def test_window_fraction_099_keeps_last_record():
    values = stabilized_window(make_series(10), 0.99, "loss")
    assert values == [10.0]


def test_window_metric_selector():
    series = make_series(4)
    ppl = stabilized_window(series, 0.5, metric="perplexity")
    assert ppl == [r.perplexity for r in series.records[2:]]


def test_window_rejects_bad_fraction_and_empty():
    with pytest.raises(ValueError):
        stabilized_window(make_series(5), 1.0, "loss")
    with pytest.raises(ValueError, match="empty"):
        stabilized_window(MetricSeries(), 0.5, "loss")


# ------------------------------------------------------------------ p format


def test_format_p_below_threshold():
    assert format_p(0.0004) == "p<.001"
    assert format_p(0.00099999) == "p<.001"


def test_format_p_regular():
    assert format_p(0.223) == "p=.223"
    assert format_p(0.001) == "p=.001"
    assert format_p(0.05) == "p=.050"
    assert format_p(1.0) == "p=1.000"


def test_record_schema():
    r = welch_t_test([1, 2, 3], [4, 5, 6.5])
    record = r.to_record("a vs b")
    assert set(record) == {"comparison", "t", "df", "p", "d", "n1", "n2",
                           "means", "variances"}
    assert record["means"] == [r.mean1, r.mean2]
    assert record["variances"] == [r.var1, r.var2]
