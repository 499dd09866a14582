import math

import numpy as np
import pytest

import agflow as ag
from agflow.errors import (
    ConfigurationError,
    MappingError,
    PreconditionError,
    TimeDomainError,
)
from agflow.schedules import alpha_ode_residual

GRID = ag.time_grid(0.1, 10.0, 400)


def shipped_families():
    return [
        ag.ConstantDamping(1.0, 1.0),
        ag.ConstantDamping(2.0, 1.0),
        ag.ConstantDamping(4.0, 1.0),
        ag.Hyperbolic(1.0),
        ag.Hyperbolic(0.0),
        ag.PolynomialDamping(1.5),
        ag.PolynomialDamping(3.0),
        ag.PolynomialDamping(6.0),
    ]


def test_constant_damping_boundary_case():
    s = ag.ConstantDamping(2.0, 1.0).sample(3.7)
    assert math.exp(s.alpha) == pytest.approx(1.0, abs=0)
    assert s.delta_dot == 2.0
    assert s.nu_dot == 1.0
    assert s.exp_pi == 0.0


def test_constant_damping_overdamped_root():
    s = ag.ConstantDamping(3.0, 1.0).sample(0.0)
    assert math.exp(s.alpha) == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-15)
    s5 = ag.ConstantDamping(5.0, 1.0).sample(1.0)
    assert math.exp(s5.alpha) == pytest.approx((5.0 - math.sqrt(21.0)) / 2.0, rel=1e-15)


def test_constant_damping_requires_positive_sigma():
    with pytest.raises(ConfigurationError):
        ag.ConstantDamping(2.0, 0.0)


def test_polynomial_sample_values():
    s = ag.PolynomialDamping(3.0).sample(2.0)
    assert math.exp(s.alpha) == pytest.approx(1.0, rel=1e-15)
    assert s.delta_dot == pytest.approx(1.5)
    assert s.nu_dot == pytest.approx(1.0)
    assert s.exp_pi == 0.0
    assert ag.PolynomialDamping(2.0).sample(1.0).exp_pi == pytest.approx(0.25)
    s4 = ag.PolynomialDamping(4.0).sample(1.0)
    assert s4.exp_pi == pytest.approx(1.0 / 8.0)
    assert s4.nu_dot == pytest.approx(2.0)


def test_hyperbolic_converges_to_constant_damping():
    s = ag.Hyperbolic(1.0).sample(50.0)
    assert math.exp(s.alpha) == pytest.approx(1.0, abs=1e-10)
    assert s.delta_dot == pytest.approx(2.0, abs=1e-10)


def test_hyperbolic_small_sigma_matches_zero_branch():
    t = np.linspace(1.0, 10.0, 50)
    tiny = ag.Hyperbolic(1e-8).sample(t)
    zero = ag.Hyperbolic(0.0).sample(t)
    assert np.max(np.abs(np.exp(tiny.alpha) / np.exp(zero.alpha) - 1.0)) <= 1e-3
    assert np.max(np.abs(tiny.delta_dot / zero.delta_dot - 1.0)) <= 1e-3


def test_time_domain_enforced():
    with pytest.raises(TimeDomainError):
        ag.Hyperbolic(1.0).sample(1e-5)
    with pytest.raises(TimeDomainError):
        ag.PolynomialDamping(3.0).sample(np.array([0.5, 1e-6]))


def test_derivative_consistency_by_finite_differences():
    step = 1e-6
    for fam in shipped_families():
        t = np.linspace(max(fam.t_min, 0.5), 9.5, 40)
        hi = fam.sample(t + step)
        lo = fam.sample(t - step)
        mid = fam.sample(t)
        for name, dot in (("alpha", "alpha_dot"), ("eta", "eta_dot"), ("nu", "nu_dot")):
            fd = (getattr(hi, name) - getattr(lo, name)) / (2 * step)
            ref = getattr(mid, dot)
            assert np.max(np.abs(fd - ref) / (1.0 + np.abs(ref))) <= 1e-5, (fam.name, name)


def test_nu_dot_never_exceeds_exp_alpha():
    for fam in shipped_families():
        t = np.linspace(max(fam.t_min, 0.1), 10.0, 200)
        s = fam.sample(t)
        assert np.all(s.nu_dot - np.exp(s.alpha) <= 1e-12), fam.name


def test_polynomial_nu_growth_exponents():
    for C, expo in ((1.5, 1.0), (3.0, 2.0), (6.0, 2.0)):
        fam = ag.PolynomialDamping(C)
        s = fam.sample(np.array([2.0, 8.0]))
        growth = s.nu[1] - s.nu[0]
        assert growth == pytest.approx(expo * math.log(4.0), abs=1e-10)


# The canonical rate table's predicted exponents, typed out independently of
# the families' code, in `shipped_families` order.
TYPED_RATES = [
    ("exponential", 0.5),
    ("exponential", 1.0),
    ("exponential", (4.0 - math.sqrt(4.0 * 4.0 - 4.0)) / 2.0),
    ("exponential", 1.0),
    ("polynomial", 2.0),
    ("polynomial", 1.0),
    ("polynomial", 2.0),
    ("polynomial", 2.0),
]


def test_certified_rate_equals_typed_predictions():
    assert [fam.certified_rate for fam in shipped_families()] == TYPED_RATES
    assert ag.ScheduleFamily.certified_rate is None
    assert ag.with_modified_nu(ag.ConstantDamping(2.0, 1.0)).certified_rate is None


def test_certified_rate_is_the_growth_rate_of_nu():
    # e^-nu bounds the gap, so nu grows like r t (exponential) or r log t
    # (polynomial): nu_dot -> r, or t nu_dot = r
    for fam in shipped_families():
        model, rate = fam.certified_rate
        if model == "exponential":
            assert fam.sample(100.0).nu_dot == pytest.approx(rate, rel=1e-12), fam.describe()
        else:
            t = np.array([1.0, 7.0, 100.0])
            assert t * fam.sample(t).nu_dot == pytest.approx(rate, rel=1e-12), fam.describe()


def test_check_general_constant_equalities():
    rep = ag.check_general(ag.ConstantDamping(2.0, 1.0), 1.0, GRID)
    assert rep.passed
    assert np.max(np.abs(rep.slacks[1])) == 0.0
    assert np.max(np.abs(rep.slacks[2])) == 0.0
    assert np.all(rep.slacks[3] == -1.0)


def test_check_general_hyperbolic_equalities():
    rep = ag.check_general(ag.Hyperbolic(1.0), 1.0, GRID)
    assert rep.passed
    assert np.max(np.abs(rep.slacks[0])) <= 1e-12
    assert np.max(np.abs(rep.slacks[1])) <= 1e-12


def test_check_general_violated_custom_schedule():
    bad = ag.with_modified_nu(ag.ConstantDamping(2.0, 1.0), factor=2.0)
    rep = ag.check_general(bad, 1.0, GRID)
    assert not rep.passed
    # nu_dot = 2 e^alpha gives slack e^alpha = 1 at every grid point
    assert np.all(rep.slacks[0] >= 1.0 - 1e-12)


def test_check_general2_polynomial_below_three():
    rep = ag.check_general2(ag.PolynomialDamping(2.0), 0.0, True, ag.time_grid(1.0, 10.0, 200))
    assert rep.passed
    assert np.max(np.abs(rep.slacks[1])) <= 1e-12
    assert np.max(np.abs(rep.slacks[3])) <= 1e-12
    assert np.min(rep.slacks[2]) < -1e-3


def test_check_general2_polynomial_above_three():
    fam = ag.PolynomialDamping(4.0)
    assert fam.sample(1.0).exp_pi == pytest.approx(1.0 / 8.0)
    rep = ag.check_general2(fam, 0.0, True, ag.time_grid(1.0, 10.0, 200))
    assert rep.passed
    assert np.max(np.abs(rep.slacks[1])) <= 1e-12
    assert np.max(np.abs(rep.slacks[2])) <= 1e-12


def test_check_general2_reduces_to_general_without_pi():
    fam = ag.Hyperbolic(1.0)
    base = ag.check_general(fam, 1.0, GRID)
    relaxed = ag.check_general2(fam, 1.0, False, GRID)
    assert np.array_equal(base.slacks, relaxed.slacks)


def test_check_general2_requires_symmetry_for_pi():
    with pytest.raises(PreconditionError):
        ag.check_general2(ag.PolynomialDamping(2.0), 0.0, False, ag.time_grid(1.0, 5.0, 50))


def test_check_para_constant_cases():
    assert ag.check_para(ag.ConstantDamping(2.0, 1.0), 1.0, GRID).passed
    rep = ag.check_para(ag.ConstantDamping(3.0, 1.0), 1.0, GRID)
    assert rep.passed
    # the chosen root makes the third item an equality: K2 = sigma / e^alpha
    assert np.max(np.abs(rep.slacks[2])) <= 1e-12


def test_check_para_boundary_damping_second_item_zero():
    rep = ag.check_para(ag.ConstantDamping(2.0, 1.0), 1.0, GRID)
    assert np.max(np.abs(rep.slacks[2])) <= 1e-15


def test_check_para_hyperbolic_zero_sigma():
    rep = ag.check_para(ag.Hyperbolic(0.0), 0.0, ag.time_grid(0.5, 10.0, 200))
    assert rep.passed
    assert np.max(np.abs(rep.slacks[3])) <= 1e-12


def test_check_para_rejects_non_standard_eta():
    fam = ag.CustomSchedule(
        alpha=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        alpha_dot=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        delta_dot=lambda t: np.full_like(np.asarray(t, dtype=float), 2.0),
        eta=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        eta_dot=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        nu=lambda t: np.asarray(t, dtype=float),
        nu_dot=lambda t: np.ones_like(np.asarray(t, dtype=float)),
    )
    with pytest.raises(PreconditionError):
        ag.check_para(fam, 1.0, GRID)


def _hyperbolic_beta_inputs():
    beta = lambda t: 2.0 * np.log(np.sinh(0.5 * t))  # noqa: E731
    beta_dot = lambda t: 1.0 / np.tanh(0.5 * t)  # noqa: E731
    alpha = lambda t: np.log(1.0 / np.tanh(0.5 * t))  # noqa: E731
    alpha_dot = lambda t: -(1.0 - np.tanh(0.5 * t) ** 2) / (2.0 * np.tanh(0.5 * t))  # noqa: E731
    return beta, beta_dot, alpha, alpha_dot


def test_beta_parameterization_reproduces_hyperbolic():
    grid = ag.time_grid(0.5, 10.0, 400)
    beta, beta_dot, alpha, alpha_dot = _hyperbolic_beta_inputs()
    mapped = ag.from_beta_parameterization(beta, beta_dot, alpha, alpha_dot, 1.0, grid)
    hyp = ag.Hyperbolic(1.0)
    assert np.max(np.abs(mapped.sample(grid).delta_dot - hyp.sample(grid).delta_dot)) <= 1e-10
    rep = ag.check_general(mapped, 1.0, grid)
    assert rep.passed
    assert np.max(np.abs(rep.slacks[1])) <= 1e-12


def test_beta_parameterization_zero_sigma():
    grid = ag.time_grid(0.5, 10.0, 200)
    beta = lambda t: np.log(np.asarray(t, dtype=float))  # noqa: E731
    beta_dot = lambda t: 1.0 / np.asarray(t, dtype=float)  # noqa: E731
    alpha = lambda t: np.log(2.0 / np.asarray(t, dtype=float))  # noqa: E731
    alpha_dot = lambda t: -1.0 / np.asarray(t, dtype=float)  # noqa: E731
    mapped = ag.from_beta_parameterization(beta, beta_dot, alpha, alpha_dot, 0.0, grid)
    s = mapped.sample(grid)
    assert np.max(np.abs(s.eta + np.log(grid))) <= 1e-12  # eta = -beta
    rep = ag.check_general(mapped, 0.0, grid)
    assert rep.passed
    assert np.max(np.abs(rep.slacks[1])) <= 1e-12


def test_beta_parameterization_at_upper_bound_third_slack_zero():
    grid = ag.time_grid(0.5, 10.0, 200)
    beta, _, alpha, alpha_dot = _hyperbolic_beta_inputs()
    at_bound = lambda t: np.exp(alpha(t))  # noqa: E731
    mapped = ag.from_beta_parameterization(beta, at_bound, alpha, alpha_dot, 1.0, grid)
    rep = ag.check_general(mapped, 1.0, grid)
    assert rep.passed
    assert np.max(np.abs(rep.slacks[2])) <= 1e-12


def test_beta_parameterization_rejects_inadmissible_rate():
    grid = ag.time_grid(0.5, 5.0, 100)
    beta, _, alpha, alpha_dot = _hyperbolic_beta_inputs()
    too_fast = lambda t: 2.0 * np.exp(alpha(t))  # noqa: E731
    with pytest.raises(MappingError):
        ag.from_beta_parameterization(beta, too_fast, alpha, alpha_dot, 1.0, grid)


def test_alpha_ode_residual_small():
    grid = ag.time_grid(0.1, 20.0, 1000)
    for sigma in (0.0, 0.25, 1.0, 4.0):
        assert ag.verify_alpha_ode_residual(sigma, grid) <= 1e-8
    with pytest.raises(ConfigurationError):
        ag.verify_alpha_ode_residual(-1.0, grid)
    # the family's own domain: no grid below t_min = 1e-3
    with pytest.raises(TimeDomainError):
        ag.verify_alpha_ode_residual(1.0, ag.time_grid(1e-4, 1.0, 10))


def test_alpha_ode_constant_branch_residual_is_zero():
    # critical constant damping D = 2 sqrt(sigma) is the steady branch
    # e^alpha = sqrt(sigma), alpha_dot = 0: slacks 1-3 and the residual vanish
    for sigma in (0.25, 1.0, 4.0):
        s = ag.ConstantDamping(2.0 * math.sqrt(sigma), sigma).sample(GRID)
        assert all(np.all(slack == 0.0) for slack in ag.condition_slacks(s, sigma)[:3])
        assert np.all(alpha_ode_residual(s, sigma) == 0.0)


def test_alpha_ode_residual_matches_the_hand_written_ode():
    # the damping-scale ODE typed out: 2 alpha_dot e^alpha + e^(2 alpha) - sigma
    grid = ag.time_grid(0.1, 20.0, 1000)
    for sigma in (0.0, 0.25, 1.0, 4.0):
        s = ag.Hyperbolic(sigma).sample(grid)
        ea = np.exp(s.alpha)
        hand = 2.0 * s.alpha_dot * ea + ea * ea - sigma
        assert np.max(np.abs(alpha_ode_residual(s, sigma) - hand)) <= 1e-12, sigma


def test_with_modified_nu_samples_its_base_once():
    base = ag.PolynomialDamping(1.5)
    calls = []
    sample = base.sample
    base.sample = lambda t: calls.append(t) or sample(t)
    fam = ag.with_modified_nu(base, factor=0.5, shift=2.0)
    t = np.linspace(1.0, 5.0, 7)
    got = fam.sample(t)
    assert len(calls) == 1
    want = sample(t)
    for name in ("alpha", "alpha_dot", "delta_dot", "eta", "eta_dot", "exp_pi", "exp_pi_dot"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.nu, 0.5 * want.nu + 2.0)
    assert np.array_equal(got.nu_dot, 0.5 * want.nu_dot)
    assert fam.sample(2.0).nu == 0.5 * sample(2.0).nu + 2.0
    assert fam.describe() == {
        "family": "custom", "description": "polynomial with nu scaled by 0.5 and shifted by 2"
    }


def test_with_modified_nu_only_touches_nu():
    base = ag.ConstantDamping(2.0, 1.0)
    shifted = ag.with_modified_nu(base, shift=1.0)
    t = np.linspace(0.0, 5.0, 7)
    sb, ss = base.sample(t), shifted.sample(t)
    assert np.array_equal(ss.delta_dot, sb.delta_dot)
    assert np.array_equal(ss.alpha, sb.alpha)
    assert np.max(np.abs(ss.nu - sb.nu - 1.0)) <= 1e-12
    assert np.array_equal(ss.nu_dot, sb.nu_dot)


def test_condition_report_serializes():
    rep = ag.check_general(ag.ConstantDamping(2.0, 1.0), 1.0, GRID)
    d = rep.to_dict()
    assert d["passed"] is True
    assert len(d["item_worst"]) == 4
