import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from capsketch import (
    CoefficientFunction,
    FrequencyDistribution,
    IllPosedTransformError,
    StatisticSpec,
    THREE_POINT_STABLE,
    THREE_POINT_TIGHT,
    UnsupportedStatisticError,
    cap1_approximation,
    capping_transform,
    inverse_transform,
    laplace_c,
    lift_cap1_to_f,
    measured_function,
    parse_statistic,
    rho_estimate,
)
from capsketch.transforms import (
    CAP1_ERROR_GRID,
    DEFAULT_RHO_GRID,
    ExpDensity,
    InverseSquareDensity,
    LiftedDensity,
    MomentDensity,
    PowerTailAboveOne,
    ReciprocalExpDensity,
    SignedCoefficientFunction,
    relative_error_to,
)

from conftest import toy_laplace


# ---------------------------------------------------------------------------
# transform of a frequency distribution


def test_laplace_c_closed_form(toy_dist):
    for t in [0.01, 0.1, 1.0, 10.0, 100.0]:
        assert laplace_c(toy_dist, t) == pytest.approx(toy_laplace(t), rel=1e-12)
    assert laplace_c(toy_dist, 0.0) == 0.0
    assert laplace_c(toy_dist, 1e9) == pytest.approx(13.0, rel=1e-12)
    with pytest.raises(ValueError):
        laplace_c(toy_dist, -0.5)


def test_laplace_c_monotone_bounded(toy_dist):
    ts = np.logspace(-4, 4, 200)
    vals = laplace_c(toy_dist, ts)
    assert np.all(np.diff(vals) >= 0)
    assert np.all(vals <= toy_dist.distinct + 1e-12)


def test_laplace_c_lower_bound():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ws = rng.uniform(0.1, 50.0, size=rng.integers(1, 8))
        cs = rng.integers(1, 20, size=len(ws))
        dist = FrequencyDistribution.from_pairs(ws, cs)
        for t in np.logspace(-3, 2, 25):
            bound = (1 - 1 / math.e) * dist.total * min(1.0 / dist.max_weight, t)
            assert laplace_c(dist, float(t)) >= bound - 1e-12


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_laplace_c_limit_regimes(toy_dist, eps):
    s, n = toy_dist.total, toy_dist.distinct
    # Small t: per key |1-exp(-wt) - wt| <= (wt)^2/2, and wt <= sqrt(eps)
    # gives |transform - t*SUM| <= (sqrt(eps)/2) * t * SUM.
    t_small = math.sqrt(eps) / toy_dist.max_weight
    assert abs(laplace_c(toy_dist, t_small) - t_small * s) <= 0.5 * math.sqrt(eps) * t_small * s
    # Large t: every exp(-wt) <= eps, so the distinct count is exact to eps*n.
    t_large = -math.log(eps) / toy_dist.min_weight
    assert abs(laplace_c(toy_dist, t_large) - n) <= eps * n


def test_soft_cap_values():
    soft = StatisticSpec("softcap", {"T": 1.0})
    assert soft.evaluate(0.0) == 0.0
    assert soft.evaluate(1.0) == pytest.approx(1 - 1 / math.e, rel=1e-12)


def test_soft_cap_sandwich():
    soft = StatisticSpec("softcap", {"T": 1.0})
    for w in [0.01, 0.1, 1.0, 10.0, 100.0]:
        lo = (1 - 1 / math.e) * min(1.0, w)
        assert lo <= soft.evaluate(w) <= min(1.0, w)


# ---------------------------------------------------------------------------
# inverse transforms (Table of basic statistics)


def test_inverse_transform_soft_cap_is_delta():
    a = inverse_transform(StatisticSpec("softcap", {"T": 4.0}))
    assert a.deltas == ((0.25, 4.0),)
    assert a.parts == ()


def test_inverse_transform_sqrt_density():
    a = inverse_transform("sqrt")
    (fam,) = a.parts
    assert fam.density(1.0) == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-12)
    assert fam.density(4.0) == pytest.approx(4.0**-1.5 / (2 * math.sqrt(math.pi)), rel=1e-12)


@pytest.mark.parametrize(
    "spec,f",
    [
        (StatisticSpec("moment", {"p": 0.5}), lambda w: math.sqrt(w)),
        (StatisticSpec("moment", {"p": 0.3}), lambda w: w**0.3),
        (StatisticSpec("log1p"), math.log1p),
    ],
)
def test_inverse_transform_reconstructs_statistic(spec, f):
    a = inverse_transform(spec)
    (fam,) = a.parts
    for w in [0.1, 1.0, 10.0]:
        val, _ = integrate.quad(lambda t: fam.density(t) * -math.expm1(-w * t), 0, np.inf, limit=400)
        assert val == pytest.approx(f(w), rel=1e-4)


def test_inverse_transform_rejects():
    with pytest.raises(UnsupportedStatisticError):
        inverse_transform(StatisticSpec("cap", {"T": 1.0}))
    with pytest.raises(ValueError):
        MomentDensity(p=1.5)
    with pytest.raises(ValueError):
        MomentDensity(p=0.0)


def test_tail_integral_examples():
    soft = inverse_transform(StatisticSpec("softcap", {"T": 2.0}))
    assert soft.tail(0.4) == 2.0  # delta at 1/T = 0.5 >= 0.4
    assert soft.tail(0.5) == 2.0  # inclusive at the location
    assert soft.tail(0.6) == 0.0
    sqrt_a = inverse_transform("sqrt")
    assert sqrt_a.tail(1 / math.pi) == pytest.approx(1.0, rel=1e-12)
    assert sqrt_a.tail(0.0) == math.inf


def test_head_integral_examples():
    log_a = inverse_transform("log1p")
    assert log_a.head(0.0) == 0.0
    assert log_a.head(1e-12) == pytest.approx(1e-12, rel=1e-6)
    assert log_a.head(1.0) == pytest.approx(1 - 1 / math.e, rel=1e-12)
    sqrt_a = inverse_transform("sqrt")
    assert sqrt_a.head(math.pi) == pytest.approx(1.0, rel=1e-12)
    soft = inverse_transform(StatisticSpec("softcap", {"T": 2.0}))
    assert soft.head(0.4) == 0.0
    assert soft.head(0.5) == pytest.approx(1.0, rel=1e-12)


def test_log1p_tail_is_exponential_integral():
    # The tail of exp(-t)/t from tau is E1(tau); a tau*E1(tau) reading of the
    # same entry would be off by a factor tau. Pin the integral definition.
    log_a = inverse_transform("log1p")
    for tau in [0.1, 0.7, 3.0]:
        quad_val, _ = integrate.quad(lambda t: math.exp(-t) / t, tau, np.inf, limit=200)
        assert log_a.tail(tau) == pytest.approx(quad_val, rel=1e-8)
        assert log_a.tail(tau) == pytest.approx(special.exp1(tau), rel=1e-12)


def test_log1p_tail_matches_scipy_exponential_integral():
    # the numpy E1 over every tau a draw or breakpoint can reach
    tau = np.logspace(-300, np.log10(700), 4001)
    tail = inverse_transform("log1p").tail(tau)
    np.testing.assert_allclose(tail, special.exp1(tau), rtol=1e-14, atol=0)
    assert inverse_transform("log1p").tail(0.0) == math.inf


_FAMILIES = [
    MomentDensity(0.5),
    MomentDensity(0.25),
    ReciprocalExpDensity(),
    ExpDensity(3.0),
    InverseSquareDensity(),
    PowerTailAboveOne(0.4),
    LiftedDensity(ExpDensity(2.0), s=0.9, m=1.7),
    LiftedDensity(InverseSquareDensity(), s=3.75, m=0.4),
]


@pytest.mark.parametrize("fam", _FAMILIES, ids=lambda f: type(f).__name__ + "-" + str(getattr(f, "p", getattr(f, "T", getattr(f, "s", "")))))
def test_family_integrals_match_quadrature(fam):
    for tau in [0.05, 0.5, 2.0, 17.0]:
        tail_num, _ = integrate.quad(fam.density, tau, np.inf, limit=500, epsabs=1e-13, epsrel=1e-11)
        assert fam.tail(tau) == pytest.approx(tail_num, rel=1e-8)
        head_num, _ = integrate.quad(lambda t: t * fam.density(t), 0, tau, limit=500, epsabs=1e-13, epsrel=1e-11)
        assert fam.head(tau) == pytest.approx(head_num, rel=1e-8, abs=1e-13)


# ---------------------------------------------------------------------------
# capping transforms


_CAPPING_SPECS = [
    (StatisticSpec("cap", {"T": 5.0}), None),
    (StatisticSpec("sum"), None),
    (StatisticSpec("clipped_moment", {"p": 0.5}), None),
    (StatisticSpec("clipped_moment", {"p": 0.2}), None),
    (StatisticSpec("softcap", {"T": 3.0}), None),
    (StatisticSpec("log1p"), None),
]


def test_capping_transform_entries():
    ct = capping_transform(StatisticSpec("cap", {"T": 5.0}))
    assert ct.a_inf == 0.0 and ct.coef.deltas == ((5.0, 1.0),)
    ct = capping_transform(StatisticSpec("sum"))
    assert ct.a_inf == 1.0 and ct.coef.is_empty
    ct = capping_transform(StatisticSpec("softcap", {"T": 2.0}))
    assert ct.a_inf == 0.0 and isinstance(ct.coef.parts[0], ExpDensity)
    ct = capping_transform(StatisticSpec("log1p"))
    assert isinstance(ct.coef.parts[0], InverseSquareDensity)
    with pytest.raises(UnsupportedStatisticError):
        capping_transform(StatisticSpec("distinct"))


@pytest.mark.parametrize("spec,_", _CAPPING_SPECS, ids=lambda s: getattr(s, "name", ""))
def test_capping_transform_reconstruction(spec, _):
    ct = capping_transform(spec)
    ws = np.logspace(-2, 3, 30)
    target = np.asarray(spec.evaluate(ws), dtype=np.float64)
    got = ct.reconstruct(ws)
    assert np.max(np.abs(got - target) / target) < 1e-6


@pytest.mark.parametrize("spec,_", _CAPPING_SPECS, ids=lambda s: getattr(s, "name", ""))
def test_capping_transform_slope_at_zero(spec, _):
    # total coefficient mass plus the linear term equals the slope of f at 0,
    # which is 1 for every supported family
    assert capping_transform(spec).slope_at_zero == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# signed approximations of hard capping


def test_cap1_soft_variants():
    # one point mass at 1: mass 1 (soft) or 2e/(2e-1) (scaled soft); with no
    # negative part each certifies rho = 1
    soft = SignedCoefficientFunction(CoefficientFunction(deltas=((1.0, 1.0),)), CoefficientFunction())
    mass = 2 * math.e / (2 * math.e - 1)
    scaled = SignedCoefficientFunction(CoefficientFunction(deltas=((1.0, mass),)), CoefficientFunction())
    assert soft.rho_bound == scaled.rho_bound == 1.0
    # scaling trades the vanishing error at the extremes for a lower worst case;
    # the analytic maxima are 1/e and 1/(2e-1), certified here on a grid
    grid = np.append(CAP1_ERROR_GRID, 1.0)
    assert relative_error_to(soft, lambda w: np.minimum(1, w), grid) == pytest.approx(1 / math.e, abs=1e-3)
    assert relative_error_to(scaled, lambda w: np.minimum(1, w), grid) == pytest.approx(
        1 / (2 * math.e - 1), abs=1e-3
    )


def test_three_point_coefficients():
    tp = cap1_approximation(A=1.5, b1=0.6, b2=7.97)
    ((_, a_plus),) = tp.plus.deltas
    (b1, a1), (b2, a2) = tp.minus.deltas
    assert a_plus == 2.5
    # closed forms A(b2-1)/(b2-b1) and A(1-b1)/(b2-b1)
    assert a1 == pytest.approx(1.4185888738127544, rel=1e-12)
    assert a2 == pytest.approx(0.0814111261872456, rel=1e-12)
    assert a1 + a2 == pytest.approx(1.5, rel=1e-12)


@pytest.mark.parametrize("params", [THREE_POINT_TIGHT, THREE_POINT_STABLE], ids=["tight", "stable"])
def test_three_point_moment_conditions(params):
    tp = cap1_approximation(**params)
    mass = sum(m for _, m in tp.plus.deltas) - sum(m for _, m in tp.minus.deltas)
    first = sum(t * m for t, m in tp.plus.deltas) - sum(t * m for t, m in tp.minus.deltas)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert first == pytest.approx(1.0, abs=1e-12)


def test_three_point_error_and_stability():
    cap1 = lambda w: np.minimum(1.0, w)
    tight = cap1_approximation(**THREE_POINT_TIGHT)
    assert relative_error_to(tight, cap1, CAP1_ERROR_GRID) <= 0.12
    assert tight.rho_bound <= 12.4
    stable = cap1_approximation(**THREE_POINT_STABLE)
    assert relative_error_to(stable, cap1, CAP1_ERROR_GRID) <= 0.15
    assert stable.rho_bound <= 2.9


def test_three_point_rejects_degenerate():
    with pytest.raises(ValueError):
        cap1_approximation(A=1.0, b1=0.9, b2=0.9)
    with pytest.raises(ValueError):
        cap1_approximation(A=-1.0, b1=0.5, b2=2.0)


def test_rho_estimate_basics():
    tp = cap1_approximation(**THREE_POINT_TIGHT)
    rho = rho_estimate(tp, DEFAULT_RHO_GRID)
    assert 1.0 <= rho <= 12.4
    nonneg = SignedCoefficientFunction(CoefficientFunction(deltas=((1.0, 1.0),)), CoefficientFunction())
    assert rho_estimate(nonneg, DEFAULT_RHO_GRID) == 1.0
    with pytest.raises(ValueError):
        rho_estimate(tp, [])
    with pytest.raises(ValueError):
        rho_estimate(tp, np.logspace(0, 2, 10))  # only two decades
    # an ill-posed pair is refused where it is made
    with pytest.raises(IllPosedTransformError):
        SignedCoefficientFunction(
            CoefficientFunction(deltas=((1.0, 1.0),)),
            CoefficientFunction(deltas=((0.5, 2.5),)),
        )


def test_rho_estimate_rejects_non_finite_transform():
    # the positive part's LapM overflows to inf; max(1, nan) would certify rho = 1
    with pytest.raises(IllPosedTransformError, match="not finite"):
        SignedCoefficientFunction(
            CoefficientFunction(deltas=((1.0, 1e308), (2.0, 1e308))),
            CoefficientFunction(deltas=((0.5, 1.0),)),
        )


def test_signed_function_disjoint_support():
    with pytest.raises(ValueError):
        SignedCoefficientFunction(
            CoefficientFunction(deltas=((1.0, 1.0),)),
            CoefficientFunction(deltas=((1.0, 0.5),)),
        )


@pytest.mark.parametrize("text", ["softcapT=5", "moment=0.3", "sqrt", "log1p"])
def test_measured_function_of_a_nonnegative_statistic_is_its_inverse_transform(text):
    assert measured_function(text) == inverse_transform(text)


def test_measured_function_of_hard_capping_is_signed():
    # cap1approx as given; capT through the stable three-point function, so
    # capT=1 is the stable cap1approx itself
    stable = "cap1approx=A:{A:g},b1:{b1:g},b2:{b2:g}".format(**THREE_POINT_STABLE)
    assert measured_function(stable) == cap1_approximation(**THREE_POINT_STABLE)
    tight = "cap1approx=A:{A:g},b1:{b1:g},b2:{b2:g}".format(**THREE_POINT_TIGHT)
    assert measured_function(tight) == cap1_approximation(**THREE_POINT_TIGHT)
    capped = capping_transform("capT=5")
    assert measured_function("capT=5") == lift_cap1_to_f(capped, cap1_approximation(**THREE_POINT_STABLE))
    assert measured_function("capT=1") == measured_function(stable)


@pytest.mark.parametrize("text", ["distinct", "sum"])
def test_distinct_and_sum_have_no_measured_function(text):
    with pytest.raises(UnsupportedStatisticError):
        measured_function(text)


# ---------------------------------------------------------------------------
# lifting a cap_1 approximation through a capping transform


def test_lift_single_delta_rescales():
    # a single-point capping transform just rescales the approximation:
    # masses times T, locations divided by T
    tp = cap1_approximation(**THREE_POINT_STABLE)
    ct = capping_transform(StatisticSpec("cap", {"T": 5.0}))
    lifted = lift_cap1_to_f(ct, tp)
    for (loc, mass), (loc0, mass0) in zip(lifted.plus.deltas, tp.plus.deltas):
        assert loc == pytest.approx(loc0 / 5.0, rel=1e-12)
        assert mass == pytest.approx(mass0 * 5.0, rel=1e-12)
    locs = {round(loc, 12) for loc, _ in lifted.minus.deltas}
    assert locs == {round(b / 5.0, 12) for b in (THREE_POINT_STABLE["b1"], THREE_POINT_STABLE["b2"])}
    # pointwise, the rescaled error at w equals the base error at w/T
    grid = np.logspace(-3, 4, 120)
    err = relative_error_to(lifted, lambda w: np.minimum(5.0, w), grid)
    base_err = relative_error_to(tp, lambda w: np.minimum(1.0, w), grid / 5.0)
    assert err == pytest.approx(base_err, rel=1e-9)


def test_lift_continuous_capping_transform():
    tp = cap1_approximation(**THREE_POINT_TIGHT)
    ct = capping_transform(StatisticSpec("softcap", {"T": 1.0}))
    lifted = lift_cap1_to_f(ct, tp)
    grid = np.logspace(-3, 3, 25)
    approx = lifted.lapm(grid)
    target = StatisticSpec("softcap", {"T": 1.0}).evaluate(grid)
    assert np.max(np.abs(approx - target) / target) <= 0.115 + 1e-6
    assert lifted.rho_bound <= tp.rho_bound + 1e-9


def test_lift_rejects():
    tp = cap1_approximation(**THREE_POINT_STABLE)
    with pytest.raises(UnsupportedStatisticError):
        lift_cap1_to_f(capping_transform(StatisticSpec("sum")), tp)
    continuous_alpha = SignedCoefficientFunction(
        CoefficientFunction(parts=(ExpDensity(1.0),)), CoefficientFunction()
    )
    with pytest.raises(UnsupportedStatisticError):
        lift_cap1_to_f(capping_transform(StatisticSpec("cap", {"T": 2.0})), continuous_alpha)


# ---------------------------------------------------------------------------
# descriptors


def test_parse_statistic_round_trip():
    cases = ["capT=5", "softcapT=0.5", "moment=0.25", "sqrt", "log1p", "distinct", "sum",
             "softcapT=0.123456789", "moment=0.123456789", "capT=3.14159265",
             "cap1approx=A:1.123456789,b1:0.6,b2:7.97"]
    for text in cases:
        spec = parse_statistic(text)
        assert parse_statistic(spec.descriptor()) == spec
    spec = parse_statistic("cap1approx=A:1.5,b1:0.6,b2:7.97")
    assert spec.params == {"A": 1.5, "b1": 0.6, "b2": 7.97}
    assert parse_statistic(spec.descriptor()) == spec


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.builds(lambda T: StatisticSpec("cap", {"T": T}), _POSITIVE),
        st.builds(lambda T: StatisticSpec("softcap", {"T": T}), _POSITIVE),
        st.builds(lambda p: StatisticSpec("moment", {"p": p}), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        st.builds(
            lambda A, b1, b2: StatisticSpec("cap1approx", {"A": A, "b1": b1, "b2": b2}),
            _POSITIVE,
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(1.0, exclude_min=True, allow_infinity=False),
        ),
    )
)
def test_descriptor_round_trips_every_parameter(spec):
    assert parse_statistic(spec.descriptor()) == spec


def test_parse_statistic_rejects():
    for bad in ["", "capT=", "capT=-1", "capT=inf", "moment=1.5", "moment=nope", "frobnicate", "cap1approx=A:1"]:
        with pytest.raises(UnsupportedStatisticError):
            parse_statistic(bad)


def test_statistic_evaluation(toy_dist):
    spec = parse_statistic("capT=5")
    assert spec.evaluate(3.0) == 3.0
    assert spec.evaluate(7.0) == 5.0
    assert parse_statistic("softcapT=2").evaluate(2.0) == pytest.approx(2 * (1 - 1 / math.e))
    assert parse_statistic("sqrt").evaluate(9.0) == 3.0
    assert parse_statistic("distinct").evaluate(0.0) == 0.0
    assert parse_statistic("distinct").evaluate(5.0) == 1.0
