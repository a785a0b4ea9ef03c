import math
import sys
from fractions import Fraction

import pytest

from conftest import b_factor, check_cor_conditions, mu_exact_by_sum
from disjunct.bounds import (
    best_even_ell,
    eps_cw,
    eps_cw_l2,
    eps_cw_l2_exact,
    eps_cw_rosenthal,
    eps_nonbinary,
    eps_rs,
    hermitian_params,
    log_b_factor,
    mu_bound,
    mu_exact,
    rs_feasible,
    suzuki_params,
)
from disjunct.errors import InputError


# -- B(ell, t) -------------------------------------------------------------------


def test_b_factor_examples():
    assert b_factor(2, 1) == 1.0
    assert abs(b_factor(2, 100) - 3600) < 1e-9
    assert abs(b_factor(4, 2) - 16) < 1e-9


def test_b_factor_crossover():
    # t^ell is the minimum exactly when t <= 18*ell
    for ell in (2, 4, 6):
        for t in (1, 2, ell * 18 - 1, ell * 18, ell * 18 + 1, 1000):
            expected = min((18 * ell * t) ** (ell / 2), float(t) ** ell)
            assert abs(b_factor(ell, t) - expected) / expected < 1e-9
            if t <= 18 * ell:
                assert log_b_factor(ell, t) == ell * math.log(t)


def test_b_factor_rejects_bad_arguments():
    with pytest.raises(InputError):
        b_factor(3, 2)
    with pytest.raises(InputError):
        b_factor(2, 0)


# -- nonbinary bound -----------------------------------------------------------------


def direct_eps_nonbinary(q, n, t, ell):
    b = min((18 * ell * t) ** (ell / 2), t**ell)
    main = (math.e * ell * (q - 1) / (2 * n * (q - t) ** 2)) ** (ell / 2)
    tail = sum(((q - 1) * ell / (2 * n * math.e)) ** i for i in range(ell // 2 + 1))
    return b * main * tail


def test_eps_nonbinary_matches_direct_evaluation():
    report = eps_nonbinary(64, 63, 4, 4)
    assert report.ok
    direct = direct_eps_nonbinary(64, 63, 4, 4)
    assert abs(report.epsilon - direct) / direct < 1e-9
    assert abs(report.epsilon - 0.0013294316844127414) / report.epsilon < 1e-12


def test_eps_nonbinary_monotone_in_t():
    assert eps_nonbinary(64, 63, 2, 4).epsilon <= eps_nonbinary(64, 63, 4, 4).epsilon


def test_eps_nonbinary_rejects_t_equal_q():
    report = eps_nonbinary(5, 4, 5, 2)
    assert not report.ok and report.epsilon is None
    assert dict(report.preconditions)["t < q (finite bound)"] is False


def test_eps_nonbinary_rejects_odd_ell():
    assert not eps_nonbinary(8, 7, 2, 3).ok


# -- constant-weight bounds -------------------------------------------------------------


def direct_eps_cw(m_len, w, t, ell):
    b = min((18 * ell * t) ** (ell / 2), t**ell)
    main = (math.e * ell * (m_len - w) / (2 * (m_len - t * w) ** 2)) ** (ell / 2)
    tail = sum(((m_len - w) * ell / (2 * math.e * w * w)) ** i for i in range(ell // 2 + 1))
    return b * main * tail


def test_eps_cw_matches_direct_evaluation():
    report = eps_cw(1024, 32, 8, 4)
    direct = direct_eps_cw(1024, 32, 8, 4)
    assert abs(report.epsilon - direct) / direct < 1e-9
    assert abs(report.epsilon - 0.7604966092447331) / report.epsilon < 1e-12
    assert not report.trivial


def test_eps_cw_precondition_failures():
    assert not eps_cw(20, 10, 2, 2).ok  # w = M/2
    assert not eps_cw(21, 3, 7, 2).ok  # t = M/w


def test_eps_cw_ell2_reduction():
    m_len, w, t = 300, 9, 5
    report = eps_cw(m_len, w, t, 2)
    closed = (
        min(36.0 * t, float(t) ** 2)
        * (math.e * (m_len - w) / (m_len - t * w) ** 2)
        * (1 + (m_len - w) / (math.e * w * w))
    )
    assert abs(report.epsilon - closed) / closed < 1e-12


def test_eps_cw_rosenthal_decays_on_feasible_point():
    m_len, w, t = 2_000_000, 1000, 3
    for ell in (4, 8):
        assert all(check_cor_conditions(m_len, w, t, ell).values())
    r4 = eps_cw_rosenthal(m_len, w, t, 4)
    r6 = eps_cw_rosenthal(m_len, w, t, 6)
    r8 = eps_cw_rosenthal(m_len, w, t, 8)
    assert r4.ok and r8.ok
    assert r8.epsilon < r6.epsilon < r4.epsilon


def test_eps_cw_rosenthal_smallest_even_ell():
    report = eps_cw_rosenthal(1000, 5, 2, 2)
    assert report.ok and math.isfinite(report.log_epsilon)


def test_eps_cw_rosenthal_below_threshold():
    report = eps_cw_rosenthal(20, 10, 1, 2)
    assert not report.ok and report.epsilon is None


def test_eps_cw_l2_examples():
    assert abs(eps_cw_l2(7, 3, 1).epsilon - 1 / 6) < 1e-12
    assert eps_cw_l2_exact(63, 3, 5) == Fraction(125, 992)
    near = eps_cw_l2(7, 3, 2)  # wt = 6 close to M = 7
    assert near.trivial and near.epsilon > 1
    assert not eps_cw_l2(6, 3, 2).ok  # wt = M diverges


def test_eps_cw_l2_exact_matches_float():
    for m_len, w, t in [(63, 3, 5), (63, 3, 2), (1024, 32, 8), (7, 3, 1)]:
        exact = eps_cw_l2_exact(m_len, w, t)
        report = eps_cw_l2(m_len, w, t)
        assert abs(report.epsilon - float(exact)) / float(exact) < 1e-12


# -- RS asymptotic display ----------------------------------------------------------------


def test_eps_rs_boundary_value():
    q = 2.13 * 4**1.5 * math.sqrt(2) + 2
    report = eps_rs(q, 2, 4)
    assert abs(report.epsilon - 4 / (2 * math.e)) < 1e-9


def test_eps_rs_example_and_feasibility():
    report = eps_rs(64, 2, 4)
    assert abs(report.epsilon - 0.016792181078649392) / report.epsilon < 1e-12
    assert rs_feasible(64, 2, 4)
    assert not rs_feasible(26, 2, 4)
    infeasible = eps_rs(26, 2, 4)
    assert dict(infeasible.preconditions)["q > 2.13*ell^1.5*sqrt(t) + t"] is False
    assert infeasible.note == "asymptotic display"


def test_rs_feasible_past_a_double_power():
    # ell**1.5 overflowed for ell above about 3*10^205; from ell = 2^682 on, 2.13*ell^1.5 is infinite
    big = sys.float_info.max
    assert rs_feasible(big, 2, 2**680)  # 2.13 * 2^1020 * sqrt(2) is still a double
    for ell in (2**682 - 2, 2**682, 10**300, 2**1000):
        assert not rs_feasible(big, 2, ell)


# -- log-space consistency ----------------------------------------------------------------


def test_log_space_matches_direct_where_finite():
    grid = [
        (eps_nonbinary(64, 63, 4, 4), direct_eps_nonbinary(64, 63, 4, 4)),
        (eps_nonbinary(101, 100, 9, 8), direct_eps_nonbinary(101, 100, 9, 8)),
        (eps_cw(1024, 32, 8, 4), direct_eps_cw(1024, 32, 8, 4)),
        (eps_cw(4096, 64, 16, 6), direct_eps_cw(4096, 64, 16, 6)),
    ]
    for report, direct in grid:
        assert abs(report.epsilon - direct) / direct < 1e-9


def test_huge_parameters_stay_finite_in_log_space():
    report = eps_nonbinary(2**15, 2**15 - 1, 2**12, 64)
    assert report.ok
    assert math.isfinite(report.log_epsilon)


# -- mu bound ---------------------------------------------------------------------------


def test_mu_exact_examples():
    assert mu_exact(10, Fraction(3, 5), 1) == 10
    assert mu_exact(10, Fraction(3, 5), 2) == Fraction(845, 3)


def test_mu_exact_equals_the_binomial_sum():
    # the C7 grid (n = 5..50, p = 0.55..0.95, r = 1..6), and p <= 1/2, where mu_bound is undefined
    for n in range(5, 51):
        for p in [Fraction(p100, 100) for p100 in range(55, 100, 5)] + [Fraction(1, 2), Fraction(1, 3), Fraction(1, 10)]:
            for r in range(1, 7):
                assert mu_exact(n, p, r) == mu_exact_by_sum(n, p, r), (n, p, r)
    assert mu_exact(3, Fraction(1, 2), 0) == 1 == mu_exact_by_sum(3, Fraction(1, 2), 0)


def test_mu_bound_examples():
    res1 = mu_bound(10, 0.6, 1)
    assert res1.exact == 10 and res1.holds and res1.bound >= 10
    res2 = mu_bound(10, 0.6, 2)
    assert res2.holds
    assert 280 < float(res2.exact) < 282 and 3000 < res2.bound < 3500


def test_mu_bound_simplified_dominates_sum_form():
    # whenever p/(1-p) <= n/r the constant form is the larger of the two bounds
    for n, p, r in [(10, 0.6, 2), (30, 0.75, 3), (50, 0.55, 6)]:
        res = mu_bound(n, p, r)
        assert res.simplified_applies
        assert res.simplified >= res.bound
        assert Fraction(res.exact) <= Fraction(res.simplified)


def test_mu_bound_rejects_bad_p():
    with pytest.raises(InputError):
        mu_bound(10, 0.5, 1)
    with pytest.raises(InputError):
        mu_bound(10, 1.0, 1)


# -- parameter calculators ----------------------------------------------------------------


def test_hermitian_params_table():
    res = hermitian_params(3, 9)
    assert res.n == 27 and res.m_tests == 243
    assert res.dprime_lb == 5 and res.log_n_codewords == 14 and res.log_base == 3
    extras = dict(res.extras)
    assert extras["genus"] == 3
    assert extras["log_N_literal_reading"] < 0  # the genus-free reading is unusable
    res4 = hermitian_params(4, 16)
    assert res4.dprime_lb == 6 and res4.m_tests == 1024


def test_hermitian_reproduces_r_equals_q0_squared():
    for q0 in (3, 4, 5):
        res = hermitian_params(q0, q0 * q0)
        assert res.dprime_lb == q0 + 2
        assert res.m_tests == q0**5


def test_hermitian_range_errors():
    with pytest.raises(InputError):
        hermitian_params(3, 3)  # below q0^2 - q0 - 2
    with pytest.raises(InputError):
        hermitian_params(6, 40)  # 6 is not a prime power


def test_suzuki_params_table():
    res = suzuki_params(1, 32)
    assert res.q == 8 and res.n == 64 and res.m_tests == 512
    assert res.dprime_lb == 6 and res.log_n_codewords == 19 and res.log_base == 8


def test_suzuki_special_choice_of_r():
    for m in (1, 2):
        q0 = 2**m
        q = 2 * q0 * q0
        res = suzuki_params(m, 2 * q0 * q)
        assert res.dprime_lb == 2 * q0 + 2


def test_suzuki_range_errors():
    with pytest.raises(InputError):
        suzuki_params(1, 26)  # boundary is exclusive
    with pytest.raises(InputError):
        suzuki_params(1, 64)


# -- ell selection --------------------------------------------------------------------------


def test_best_even_ell_forced_and_exhaustive():
    ell, _, _ = best_even_ell(3, "cw-minkowski", {"M": 1024, "w": 32, "t": 8})
    assert ell == 2
    ell5, report5, skipped5 = best_even_ell(5, "cw-minkowski", {"M": 1024, "w": 32, "t": 8})
    candidates = {
        e: eps_cw(1024, 32, 8, e).epsilon for e in (2, 4)
    }
    assert report5.epsilon == min(candidates.values()) and skipped5 == []
    assert ell5 == min(e for e, v in candidates.items() if v == min(candidates.values()))


def test_best_even_ell_monotone_point_picks_largest():
    ell, _, _ = best_even_ell(10, "cw-rosenthal", {"M": 2_000_000, "w": 1000, "t": 3})
    assert ell == 8


def test_best_even_ell_errors():
    with pytest.raises(InputError):
        best_even_ell(2, "cw-minkowski", {"M": 100, "w": 5, "t": 2})
    with pytest.raises(InputError):
        best_even_ell(5, "no-such-family", {})


# -- corollary conditions ---------------------------------------------------------------------


def test_check_cor_conditions_all_true_point():
    assert all(check_cor_conditions(2_000_000, 1000, 3, 8).values())


def test_check_cor_conditions_strict_at_exact_threshold():
    # M > 4w^2 t / ell^2 with w=2, t=1, ell=2: threshold is exactly 4
    at = check_cor_conditions(4, 2, 1, 2)
    above = check_cor_conditions(5, 2, 1, 2)
    assert at["M > 4*w^2*t/ell^2"] is False
    assert above["M > 4*w^2*t/ell^2"] is True


def test_check_cor_conditions_ell2_uses_natural_log():
    conds = check_cor_conditions(1000, 20, 2, 2)
    assert conds["w > 2*ell^2/log(ell)"] == (20 > 8 / math.log(2))
