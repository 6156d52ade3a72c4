import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from nslmm import (CATALOG_KINDS, UNCONDITIONAL_BOUND, ConfigurationError,
                   DenominatorSpec, PhiKind, UnsupportedError,
                   effective_ssp_coefficient, eval_phi, get_method,
                   make_phi_for_method, parse_phi_label, phi_bound,
                   phi_value, ssp_threshold, verify_phi_conditions)
from nslmm.denominator import (_MP, _NP, _TRANSFORMS, BOUND_SLACK,
                               MAX_ORDER)

ALL_SPECS = [DenominatorSpec(kind, bound=1.0) for kind in CATALOG_KINDS]


def spec_ids(spec):
    return spec.label()


def test_phi3_direct_value():
    spec = DenominatorSpec(PhiKind.PHI3, bound=1.0)
    assert eval_phi(spec, 1.0) == pytest.approx(0.5, rel=1e-15)


def test_phi8_direct_value():
    # 1/(1+1)^(1/4) = 2^(-1/4), pinned by high-precision evaluation
    spec = DenominatorSpec(PhiKind.PHI8, bound=1.0)
    assert eval_phi(spec, 1.0) == pytest.approx(0.8408964152537145, rel=1e-14)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids)
def test_phi_vanishes_at_zero(spec):
    assert eval_phi(spec, 0.0) == 0.0


def test_identity_passthrough():
    spec = DenominatorSpec(PhiKind.IDENTITY)
    assert eval_phi(spec, 0.37) == 0.37
    with pytest.raises(UnsupportedError):
        phi_bound(spec)


def test_negative_step_rejected():
    spec = DenominatorSpec(PhiKind.PHI5, bound=1.0)
    with pytest.raises(ValueError):
        eval_phi(spec, -0.1)


@pytest.mark.parametrize("bound", [np.inf, np.nan, -1.0, 0.0,
                                   np.array([0.5, np.inf])])
@pytest.mark.parametrize("kind", list(CATALOG_KINDS) + [PhiKind.GENERAL_P],
                         ids=lambda k: k.value)
def test_phi_value_rejects_a_bound_not_positive_and_finite(kind, bound):
    # an infinite bound gave nan for phi1 (with a RuntimeWarning) and 0.0
    # for phi4, not the limit x
    with pytest.raises(ValueError, match="positive and finite"):
        phi_value(kind, bound, 0.5, 5 if kind is PhiKind.GENERAL_P else None)


#: every catalog kind but phi2, whose correctly rounded value is 0 from
#: x/B of about 2.3e3 on, and three powers of the general family
_POSITIVE_KINDS = ([(kind, None) for kind in CATALOG_KINDS
                    if kind is not PhiKind.PHI2]
                   + [(PhiKind.GENERAL_P, p) for p in (5, 20, 50)])


@pytest.mark.parametrize("bound", [1e-300, 1e-6, 0.37, 1e300])
@pytest.mark.parametrize("kind, p", _POSITIVE_KINDS,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_phi_stays_in_its_range_where_an_intermediate_overflows(kind, p,
                                                               bound):
    # an intermediate that overflowed used to give 0 (phi3, phi4 and the
    # power forms) or NaN (phi4 from x of about 1.14e308) and a warning;
    # x/B runs up to 1e300 and x up to the largest float
    big = np.finfo(float).max
    with np.errstate(over="ignore"):
        xs = np.concatenate([bound * np.geomspace(1e-3, 1e300, 301),
                             np.geomspace(1e-3 * bound, big / 2, 300), [big]])
    xs = xs[xs <= big]
    got = phi_value(kind, bound, xs, p)
    scalar = np.array([phi_value(kind, bound, float(x), p) for x in xs])
    for values in (got, scalar):
        assert (values > 0).all() and (
            values <= bound * (1.0 + BOUND_SLACK)).all()
    # where the formula without its guards gave 0 or NaN, the value is
    # the formula's own, evaluated in mpmath
    formula = _TRANSFORMS[kind][1]
    with np.errstate(over="ignore", invalid="ignore"):
        fixed = ~(formula(_NP, xs, bound, p) > 0)
    if bound < 1 and kind not in (PhiKind.PHI1, PhiKind.PHI5):
        assert fixed.any()
    with mp.workdps(30):
        for x, value, one in zip(xs[fixed], got[fixed], scalar[fixed]):
            want = float(formula(_MP, mp.mpf(x), mp.mpf(bound),
                                 None if p is None else mp.mpf(p)))
            assert abs(value - want) <= 1e-15 * want, (x, value, want)
            assert abs(one - want) <= 1e-15 * want, (x, one, want)


#: most ulps between a transform at its small end and its value in
#: mpmath, as measured over the grid below (1; 0 at the largest bound)
_SMALL_END_ULPS = 1


@pytest.mark.parametrize("bound", [1e-300, 0.37, 1e20, 1e300,
                                   UNCONDITIONAL_BOUND])
@pytest.mark.parametrize("kind", [PhiKind.PHI1, PhiKind.PHI4, PhiKind.PHI5],
                         ids=lambda kind: kind.value)
def test_phi_keeps_its_value_where_an_intermediate_underflows(kind, bound):
    # x/B (phi1, phi5) or x * arctan(s) (phi4) subnormal or zero used to
    # take the value's digits, or all of it; x runs from the smallest
    # subnormal to 1, through array and float evaluations alike
    xs = np.geomspace(5e-324, 1.0, 200)
    formula = _TRANSFORMS[kind][1]
    with mp.workdps(60):
        want = np.array([float(formula(_MP, mp.mpf(x), mp.mpf(bound), None))
                         for x in xs])
    for got in (phi_value(kind, bound, xs),
                np.array([phi_value(kind, bound, float(x)) for x in xs])):
        assert (got > 0).all()
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= _SMALL_END_ULPS, (xs[ulps.argmax()], ulps.max())


def test_phi_is_x_where_an_intermediate_underflows():
    # the cases that read 0, 1.0000260557327025e-160 and 0.09999999999999963
    assert phi_value(PhiKind.PHI4, 0.37, 1e-300) == 1e-300
    assert phi_value(PhiKind.PHI4, 0.37, 1e-160) == 1e-160
    assert phi_value(PhiKind.PHI1, 1e300, 1e-300) == 1e-300
    for kind in (PhiKind.PHI1, PhiKind.PHI5):
        assert phi_value(kind, UNCONDITIONAL_BOUND, 0.1) == 0.1


def test_enabled_orders():
    expect = {PhiKind.PHI1: 1, PhiKind.PHI2: 1, PhiKind.PHI3: 1,
              PhiKind.PHI4: 2, PhiKind.PHI5: 2, PhiKind.PHI6: 2,
              PhiKind.PHI7: 3, PhiKind.PHI8: 4}
    for kind, order in expect.items():
        assert DenominatorSpec(kind, bound=2.0).enabled_order == order
    assert DenominatorSpec(PhiKind.GENERAL_P, bound=1.0, p=7).enabled_order == 7
    assert DenominatorSpec(PhiKind.IDENTITY).enabled_order == math.inf


def test_spec_validation():
    with pytest.raises(ValueError):
        DenominatorSpec(PhiKind.PHI1, bound=0.0)
    with pytest.raises(ValueError):
        DenominatorSpec(PhiKind.GENERAL_P, bound=1.0, p=4)
    with pytest.raises(ValueError):
        DenominatorSpec(PhiKind.PHI5, bound=1.0, p=3)


def test_phi_bound_returns_threshold():
    assert phi_bound(DenominatorSpec(PhiKind.PHI5, bound=0.2)) == 0.2
    assert phi_bound(DenominatorSpec(PhiKind.GENERAL_P, bound=2.0, p=5)) == 2.0


def test_phi1_supremum_is_the_threshold():
    spec = DenominatorSpec(PhiKind.PHI1, bound=1.0)
    assert eval_phi(spec, 1e3) == pytest.approx(1.0, rel=1e-12)
    assert eval_phi(spec, 1e3) <= 1.0


def test_phi2_peaks_at_the_threshold():
    # x e^(-x/(Be)) attains its maximum B at x = Be and decreases beyond;
    # it is the one cataloged transform that is not monotone
    b = 0.7
    spec = DenominatorSpec(PhiKind.PHI2, bound=b)
    peak = eval_phi(spec, b * math.e)
    assert peak == pytest.approx(b, rel=1e-14)
    assert eval_phi(spec, 10 * b) < peak
    xs = np.linspace(1e-3, 100 * b, 500)
    vals = np.asarray(eval_phi(spec, xs))
    assert vals.max() <= b * (1 + 1e-12)


def test_make_phi_for_method_products():
    m42 = get_method("sspms42")
    spec = make_phi_for_method(m42, 0.5, PhiKind.PHI5)
    assert spec.bound == pytest.approx(1 / 3, rel=1e-15)

    m64 = get_method("sspms64")
    spec = make_phi_for_method(m64, 1.0, PhiKind.PHI8)
    assert spec.bound == pytest.approx(0.16476, rel=1e-4)

    m43 = get_method("sspms43")
    spec = make_phi_for_method(m43, 0.2, PhiKind.PHI7)
    assert spec.bound == pytest.approx(1 / 15, rel=1e-12)

    with pytest.raises(ValueError):
        make_phi_for_method(m42, 0.0, PhiKind.PHI5)


def test_ssp_threshold_is_the_product_capped_at_the_largest_float():
    m42, rk104 = get_method("sspms42"), get_method("ssprk104")
    c42 = effective_ssp_coefficient(m42)
    value = ssp_threshold(m42, 0.5)
    assert type(value) is float and value == c42 * 0.5
    b_fe = np.array([0.5, 2.0, UNCONDITIONAL_BOUND])
    np.testing.assert_array_equal(ssp_threshold(m42, b_fe), c42 * b_fe)
    # C = 6 times the unconditional bound overflows; no warning, no inf
    assert ssp_threshold(rk104, UNCONDITIONAL_BOUND) == UNCONDITIONAL_BOUND
    capped = ssp_threshold(rk104, b_fe)
    assert isinstance(capped, np.ndarray)
    np.testing.assert_array_equal(capped, [3.0, 12.0, UNCONDITIONAL_BOUND])
    spec = make_phi_for_method(rk104, UNCONDITIONAL_BOUND, PhiKind.PHI8)
    assert spec.bound == UNCONDITIONAL_BOUND


@pytest.mark.parametrize("kind", list(PhiKind), ids=lambda k: k.value)
def test_numpy_and_mpmath_evaluations_of_the_table_agree(kind):
    # the one formula per kind, through numpy and through mpmath at 40
    # digits on the same float inputs: numpy's rounding stays a few ulps
    rng = np.random.default_rng(11)
    p = 7 if kind is PhiKind.GENERAL_P else None
    _order, formula = _TRANSFORMS[kind]
    for bound in (1e-3, 0.1, 1.0, 7.5, 1e300):
        xs = bound * 2.0 ** rng.uniform(-30, 2, 100)
        with mp.workdps(40):
            power = None if p is None else mp.mpf(p)
            exact = np.array([float(formula(_MP, mp.mpf(repr(float(x))),
                                            mp.mpf(repr(bound)), power))
                              for x in xs])
        ulps = np.spacing(np.abs(exact))
        for got in (np.asarray(phi_value(kind, bound, xs, p)),
                    np.array([phi_value(kind, bound, float(x), p)
                              for x in xs])):
            assert (np.abs(got - exact) <= 4 * ulps).all(), (kind, bound)


def test_huge_threshold_degrades_to_identity():
    # the unconditional-bound sentinel must not overflow the formulas
    from nslmm import UNCONDITIONAL_BOUND
    for kind in CATALOG_KINDS:
        spec = DenominatorSpec(kind, bound=0.9 * UNCONDITIONAL_BOUND)
        val = eval_phi(spec, 0.25)
        assert val == pytest.approx(0.25, rel=1e-9), kind


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids)
def test_positivity_and_threshold_random_sweep(spec):
    rng = np.random.default_rng(42)
    xs = rng.uniform(1e-12, 100.0 * spec.bound, size=1000)
    vals = np.asarray(eval_phi(spec, xs))
    assert np.all(vals > 0)
    assert np.all(vals <= spec.bound * (1 + 1e-12))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids)
def test_sub_identity_damping(spec):
    rng = np.random.default_rng(7)
    xs = rng.uniform(1e-12, 100.0 * spec.bound, size=1000)
    vals = np.asarray(eval_phi(spec, xs))
    assert np.all(vals <= xs * (1 + 1e-12))


@pytest.mark.parametrize(
    "spec", [s for s in ALL_SPECS if s.kind is not PhiKind.PHI2],
    ids=spec_ids)
def test_strict_monotonicity_except_phi2(spec):
    # strictly increasing in exact arithmetic; in doubles the exponential
    # and saturating kinds flatten once within an ulp of the threshold, so
    # strictness is only asserted away from that plateau
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(1e-9, 100.0 * spec.bound, size=1000))
    vals = np.asarray(eval_phi(spec, xs))
    diffs = np.diff(vals)
    assert np.all(diffs >= 0)
    below_plateau = vals[1:] < spec.bound * (1 - 1e-9)
    assert np.all(diffs[below_plateau] > 0)


@given(x=st.floats(min_value=1e-9, max_value=100.0),
       b=st.floats(min_value=1e-3, max_value=10.0))
def test_general_family_matches_phi8_at_p4_shape(x, b):
    # the general family at p=8 stays between phi8 and the identity
    g8 = phi_value(PhiKind.GENERAL_P, b, x, p=8)
    f8 = phi_value(PhiKind.PHI8, b, x)
    assert f8 - 1e-15 <= g8 <= x * (1 + 1e-12)


def test_certification_matrix():
    # the coefficient certificate passes exactly up to the enabled order
    for kind in CATALOG_KINDS:
        spec = DenominatorSpec(kind, bound=1.0)
        enabled = spec.enabled_order
        for p in range(1, 6):
            report = verify_phi_conditions(spec, p)
            assert report.passed == (p <= enabled), (kind, p, report)


#: the leading coefficient c of phi(x) - x = c B (x/B)^(q+1) + ..., worked
#: out by hand from the series of exp, atan, tanh and (1 + r^k)^(-1/k)
HAND_LEADING = {
    PhiKind.PHI1: -1 / 2, PhiKind.PHI2: -1 / math.e, PhiKind.PHI3: -1.0,
    PhiKind.PHI4: -math.pi ** 2 / 12, PhiKind.PHI5: -1 / 3,
    PhiKind.PHI6: -1 / 2, PhiKind.PHI7: -1 / 3, PhiKind.PHI8: -1 / 4,
}


@pytest.mark.parametrize("bound", [1e-300, 0.1, 1.0, 1e300])
@pytest.mark.parametrize("kind, p", [(kind, None) for kind in CATALOG_KINDS]
                         + [(PhiKind.GENERAL_P, 5), (PhiKind.GENERAL_P, 7)])
def test_certification_matches_hand_series(kind, p, bound):
    # dividing the residual by B keeps the coefficients from reading zero
    # at B = 1e-300
    spec = DenominatorSpec(kind, bound=bound, p=p)
    report = verify_phi_conditions(spec, int(spec.enabled_order))
    assert report.order == spec.enabled_order
    expected = -1 / p if p else HAND_LEADING[kind]
    assert report.leading_coefficient == pytest.approx(expected, rel=1e-12)
    assert report.passed


def test_certification_phi3_fails_second_order():
    report = verify_phi_conditions(DenominatorSpec(PhiKind.PHI3, bound=1.0), 2)
    assert report.order == 1 and not report.order_ok
    assert not report.passed


def test_certification_identity_convention():
    report = verify_phi_conditions(DenominatorSpec(PhiKind.IDENTITY), 3)
    assert report.passed
    assert report.order is None and report.leading_coefficient is None


def test_certification_general_family():
    spec = DenominatorSpec(PhiKind.GENERAL_P, bound=1.0, p=6)
    assert verify_phi_conditions(spec, 6).passed
    assert not verify_phi_conditions(spec, 7).passed


@pytest.mark.parametrize("p", [10, 12, 20, 40])
def test_certification_resolves_high_powers(p):
    # the vanishing coefficients of degree up to p read at most a few
    # 1e-64 at 60 digits, the leading one -1/p
    report = verify_phi_conditions(
        DenominatorSpec(PhiKind.GENERAL_P, bound=1.0, p=p), p)
    assert report.order == p
    assert report.leading_coefficient == pytest.approx(-1 / p, rel=1e-12)
    assert report.passed


@pytest.mark.parametrize("p", [MAX_ORDER + 1, 100_000])
def test_certification_refuses_orders_beyond_the_cap(p):
    spec = DenominatorSpec(PhiKind.GENERAL_P, bound=1.0, p=p)
    with pytest.raises(ConfigurationError, match="limit"):
        verify_phi_conditions(spec, 5)


def test_certification_rejects_orders_below_one():
    spec = DenominatorSpec(PhiKind.PHI5, bound=1.0)
    with pytest.raises(ValueError):
        verify_phi_conditions(spec, 0)


@pytest.mark.parametrize("bound, normal", [
    (1.0, True), (2.0 ** -1004, True), (2.0 ** -1005, False),
    (1e306, True), (1e307, False)])
def test_span_grid_refuses_bounds_outside_the_normal_floats(bound, normal):
    # the grid runs from bound * 2^-18, which must be a normal float, to
    # 100 * bound, which must be finite
    spec = DenominatorSpec(PhiKind.PHI5, bound=bound)
    if normal:
        report = verify_phi_conditions(spec, 2)
        assert report.passed and report.max_phi <= bound
    else:
        with pytest.raises(ConfigurationError, match="normal floats"):
            verify_phi_conditions(spec, 2)


def test_parse_phi_label():
    assert parse_phi_label("phi4") == (PhiKind.PHI4, None)
    assert parse_phi_label("phi-general:9") == (PhiKind.GENERAL_P, 9)
    assert parse_phi_label("identity") == (PhiKind.IDENTITY, None)
    with pytest.raises(ValueError):
        parse_phi_label("phi9")
