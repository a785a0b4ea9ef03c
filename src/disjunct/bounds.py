"""False-positive probability bounds and code-family parameter calculators.

Every bound is evaluated in log space first (the factor min{(18*l*t)^(l/2),
t^l} alone overflows doubles for modest l*t) and exponentiated at the end.
A result with epsilon >= 1 is returned with the trivial flag set rather
than rejected: probing where a bound breaks down is a legitimate use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import InputError, check_budget, check_printable
from .galois import prime_power


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: preconditions, log-space value, and flags."""

    formula: str
    params: tuple[tuple[str, float], ...]
    preconditions: tuple[tuple[str, bool], ...]
    log_epsilon: float | None
    note: str | None = None

    @property
    def ok(self) -> bool:
        return all(met for _, met in self.preconditions)

    @property
    def epsilon(self) -> float | None:
        if self.log_epsilon is None:
            return None
        try:
            return math.exp(self.log_epsilon)
        except OverflowError:  # log epsilon above ~709.8, past the largest double
            return math.inf

    @property
    def trivial(self) -> bool | None:
        if self.log_epsilon is None:
            return None
        return self.log_epsilon >= 0.0

    def to_dict(self) -> dict:
        eps = self.epsilon
        return {
            "formula": self.formula,
            "params": dict(self.params),
            "preconditions": {name: met for name, met in self.preconditions},
            "preconditions_met": self.ok,
            "log_epsilon": self.log_epsilon,
            "epsilon": None if eps is None else (eps if math.isfinite(eps) else "inf"),
            "trivial": self.trivial,
            **({"note": self.note} if self.note else {}),
        }


def _report(formula, params, own, log_eps, dprime=None, note=None) -> BoundReport:
    """The report, with the preconditions every family shares around its `own`: ell even and >= 2
    (a family that takes an ell), t >= 1, `own`, then ell < dual distance (when `dprime` is given).
    The thunk `log_eps` is evaluated only when every one holds, after an ell family's ell/2 + 1
    terms are charged to the operations budget; an ell past the largest double is then an input
    error, as every family takes ell in floats."""
    given = dict(params)
    ell = given.get("ell")
    pre = [("t >= 1", given["t"] >= 1), *own]
    if ell is not None:
        pre.insert(0, ("ell even and >= 2", ell >= 2 and ell % 2 == 0))
        if dprime is not None:
            pre.append(("ell < dual distance", ell < dprime))
    ok = all(met for _, met in pre)
    if ok and ell is not None:
        check_budget(ell // 2 + 1, f"{formula} bound, ell/2 + 1 terms")
        if ell > sys.float_info.max:
            raise InputError(f"ell of {ell.bit_length()} bits is past the range of a double")
    return BoundReport(formula, tuple(params), tuple(pre), log_eps() if ok else None, note)


def _charge_scan(dprime: int, families: int) -> None:
    """Charge `families` evaluations at every even ell in [2, dprime), ell/2 + 1 terms each, at once."""
    k = max((dprime - 1) // 2, 0)  # the ells 2, 4, ..., 2k; sum of i + 1 over i = 1..k
    check_budget(families * k * (k + 3) // 2, "even-ell scan below the dual distance, ell/2 + 1 terms each")


def _log_geom_sum(log_x: float, terms: int) -> float:
    """log(sum_{i=0}^{terms-1} x^i) for x = exp(log_x), stable for any magnitude."""
    top = (terms - 1) * log_x if log_x > 0 else 0 * log_x  # the largest i * log_x
    return top + math.log(sum(math.exp(i * log_x - top) for i in range(terms)))


def log_b_factor(ell: int, t: int) -> float:
    """log min{(18*ell*t)^(ell/2), t^ell}, the log of the moment-inequality prefactor B(ell, t)."""
    if ell < 2 or ell % 2:
        raise InputError(f"ell={ell} must be an even integer >= 2")
    if t < 1:
        raise InputError(f"t={t} must be >= 1")
    return min((ell / 2) * math.log(18 * ell * t), ell * math.log(t))


def _check_weight(w: int) -> None:
    """Constant-weight bounds take logs of w; a weight below 1 is no constant-weight code."""
    if w < 1:
        raise InputError(f"weight w={w} must be >= 1")


def eps_nonbinary(q: int, n: int, t: int, ell: int, dprime: int | None = None) -> BoundReport:
    """Kautz-Singleton image of a q-ary length-n code with dual distance > ell.

    epsilon <= B(ell,t) * (e*ell*(q-1) / (2n(q-t)^2))^(ell/2)
              * sum_{i=0}^{ell/2} ((q-1)*ell / (2*n*e))^i
    """
    pre = [("t <= q", t <= q), ("t < q (finite bound)", t < q), ("n >= 1", n >= 1)]
    params = [("q", q), ("n", n), ("t", t), ("ell", ell)]
    return _report("nonbinary", params, pre, lambda: (
        log_b_factor(ell, t)
        + (ell / 2)
        * (1 + math.log(ell) + math.log(q - 1) - math.log(2 * n) - 2 * math.log(q - t))
        + _log_geom_sum(math.log((q - 1) * ell) - math.log(2 * n) - 1, ell // 2 + 1)
    ), dprime)


def eps_cw(m_len: int, w: int, t: int, ell: int, dprime: int | None = None) -> BoundReport:
    """Constant-weight code of length M, weight w, dual distance > ell.

    epsilon <= B(ell,t) * (e*ell*(M-w) / (2(M-tw)^2))^(ell/2)
              * sum_{i=0}^{ell/2} ((M-w)*ell / (2*e*w^2))^i
    """
    _check_weight(w)
    pre = [("w < M/2", 2 * w < m_len), ("t < M/w", t * w < m_len)]
    params = [("M", m_len), ("w", w), ("t", t), ("ell", ell)]
    return _report("cw-minkowski", params, pre, lambda: (
        log_b_factor(ell, t)
        + (ell / 2)
        * (1 + math.log(ell) + math.log(m_len - w) - math.log(2) - 2 * math.log(m_len - t * w))
        + _log_geom_sum(
            math.log((m_len - w) * ell) - math.log(2 * w * w) - 1, ell // 2 + 1
        )
    ), dprime)


def eps_cw_rosenthal(
    m_len: int, w: int, t: int, ell: int, dprime: int | None = None
) -> BoundReport:
    """Rosenthal-inequality variant: epsilon <= t * (2*ell^2*(M-w) / (log(ell)*w*(M-tw)))^ell.

    Needs M >= max{4*w^2*t/ell^2, w + 2*e*w^2/ell}; log is natural.  Both are compared
    with ell multiplied out, in integers and in exact rationals (e as its double), so
    a huge w is no float overflow.
    """
    _check_weight(w)
    pre = [
        ("t < M/w", t * w < m_len),
        ("M >= 4*w^2*t/ell^2", ell >= 2 and m_len * ell**2 >= 4 * w * w * t),
        ("M >= w + 2*e*w^2/ell", ell >= 2 and (m_len - w) * ell >= 2 * Fraction(math.e) * w * w),
    ]
    params = [("M", m_len), ("w", w), ("t", t), ("ell", ell)]
    return _report("cw-rosenthal", params, pre, lambda: math.log(t) + ell * (
        math.log(2 * ell * ell)
        + math.log(m_len - w)
        - math.log(math.log(ell))
        - math.log(w)
        - math.log(m_len - t * w)
    ), dprime)


def eps_cw_l2(m_len: int, w: int, t: int, dprime: int | None = None) -> BoundReport:
    """Second-moment bound: epsilon < t*(M-w)^2 / ((M-1)*(M-wt)^2); needs d' >= 3."""
    _check_weight(w)
    pre = [("w*t < M", w * t < m_len), ("M >= 2", m_len >= 2)]
    if dprime is not None:  # the one ell, 2, below the dual distance
        pre.append(("dual distance > 2", dprime > 2))
    params = [("M", m_len), ("w", w), ("t", t)]
    return _report("cw-l2", params, pre, lambda: (
        math.log(t)
        + 2 * math.log(m_len - w)
        - math.log(m_len - 1)
        - 2 * math.log(m_len - w * t)
    ))


def eps_cw_l2_exact(m_len: int, w: int, t: int) -> Fraction:
    """Exact-rational companion of eps_cw_l2."""
    if w * t >= m_len or m_len < 2 or t < 1:
        raise InputError("parameters violate w*t < M, M >= 2, t >= 1")
    return Fraction(t * (m_len - w) ** 2, (m_len - 1) * (m_len - w * t) ** 2)


def eps_rs(q: float, t: int, ell: int) -> BoundReport:
    """Asymptotic display for Kautz-Singleton Reed-Solomon matrices.

    epsilon ~ (ell/2e) * (2.13 * ell^1.5 * sqrt(t) / (q - t))^ell, nontrivial
    when q > 2.13*ell^1.5*sqrt(t) + t (the feasibility predicate).
    """
    params = [("q", q), ("t", t), ("ell", ell)]
    report = _report("rs-asymptotic", params, [("q > t", q > t)], lambda: (
        math.log(ell)
        - math.log(2)
        - 1
        + ell
        * (math.log(2.13) + 1.5 * math.log(ell) + 0.5 * math.log(t) - math.log(q - t))
    ), note="asymptotic display")
    if report.ok:  # the smallness condition is reported, not required: the display is evaluated
        feasible = ("q > 2.13*ell^1.5*sqrt(t) + t", rs_feasible(q, t, ell))
        report = replace(report, preconditions=(*report.preconditions, feasible))
    return report


def rs_feasible(q: float, t: int, ell: int) -> bool:
    """The eps_rs smallness condition q > 2.13*ell^1.5*sqrt(t) + t: False from ell = 2^682, where 2.13*ell^1.5 is inf."""
    return ell < 1 << 682 and q > 2.13 * ell**1.5 * math.sqrt(t) + t


# -- binomial moment bound ------------------------------------------------------


@dataclass(frozen=True)
class MuBoundResult:
    """Standardized central-moment bound vs the exact binomial sum."""

    n: int
    p: float
    r: int
    bound: float
    exact: Fraction
    simplified_applies: bool
    simplified: float | None

    @property
    def holds(self) -> bool:
        return Fraction(self.exact) <= Fraction(self.bound)


def mu_exact(n: int, p: Fraction, r: int) -> Fraction:
    """mu_n(2r) = sum_j ((j-np)/sqrt(p(1-p)))^(2r) C(n,j) p^j (1-p)^(n-j), exactly."""
    p = Fraction(p)
    scale = (p * (1 - p)) ** r
    total = sum(
        (
            (j - n * p) ** (2 * r) * math.comb(n, j) * p**j * (1 - p) ** (n - j)
            for j in range(n + 1)
        ),
        Fraction(0),
    )
    return total / scale


def mu_bound(n: int, p: float | Fraction, r: int) -> MuBoundResult:
    """Bound (ner)^r * sum_{i<=r} (pr/((1-p)ne))^i on mu_n(2r), 1/2 < p < 1.

    The exact companion is evaluated in exact rationals.  When
    p/(1-p) <= n/r the simplified constant form (ner)^r / (1 - 1/e) also
    applies and is reported.
    """
    pf = Fraction(p)
    if not Fraction(1, 2) < pf < 1:
        raise InputError(f"p={p} outside (1/2, 1)")
    if r < 1 or n < 1:
        raise InputError("need n >= 1 and r >= 1")
    x = float(pf * r / ((1 - pf) * n * math.e))
    log_main = r * (math.log(n) + 1 + math.log(r))
    log_bound = log_main + _log_geom_sum(math.log(x), r + 1)
    simplified_applies = pf / (1 - pf) <= Fraction(n, r)
    simplified = (
        math.exp(log_main) / (1 - math.exp(-1)) if simplified_applies else None
    )
    return MuBoundResult(
        n=n,
        p=float(pf),
        r=r,
        bound=math.exp(log_bound),
        exact=mu_exact(n, pf, r),
        simplified_applies=simplified_applies,
        simplified=simplified,
    )


# -- algebraic-geometry parameter calculators -------------------------------------


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of a testing matrix built on an algebraic-curve code family."""

    family: str
    q: int
    n: int
    m_tests: int
    dprime_lb: int
    log_n_codewords: int
    log_base: int
    extras: tuple[tuple[str, float], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "q": self.q,
            "n": self.n,
            "M": self.m_tests,
            "dprime_lower_bound": self.dprime_lb,
            "log_N": self.log_n_codewords,
            "log_base": self.log_base,
            **dict(self.extras),
        }


def hermitian_params(q0: int, r: int) -> FamilyParams:
    """Hermitian-curve code over GF(q0^2): n = q0^3, M = q0^5, d' >= r + q0 + 2 - q0^2.

    log_{q0} N = 2*(r + 1 - g) with curve genus g = q0*(q0-1)/2.  The
    genus-free exponent reading 2*(r + 1 - q*(q-1)/2) with q = q0^2 is
    reported alongside as a diagnostic; it goes negative for all feasible r
    and is not used.
    """
    check_printable(6 * q0.bit_length() + 1, "hermitian at this q0")  # log_N reaches 2*q0^6 + 2
    lo, hi = q0 * q0 - q0 - 2, q0**6
    if not lo <= r <= hi:  # before factoring q0, which takes ~sqrt(q0) divisions for a large prime
        raise InputError(f"r={r} outside [{lo}, {hi}]")
    if prime_power(q0) is None:
        raise InputError(f"q0={q0} must be a prime power")
    q = q0 * q0
    genus = q0 * (q0 - 1) // 2
    return FamilyParams(
        family="hermitian",
        q=q,
        n=q0**3,
        m_tests=q0**5,
        dprime_lb=r + q0 + 2 - q0 * q0,
        log_n_codewords=2 * (r + 1 - genus),
        log_base=q0,
        extras=(
            ("t_suggested", q0 * q0),
            ("genus", genus),
            ("log_N_literal_reading", 2 * (r + 1 - q * (q - 1) // 2)),
        ),
    )


def suzuki_params(m: int, r: int) -> FamilyParams:
    """Suzuki-curve code: q0 = 2^m, q = 2*q0^2, n = q^2, M = q^3, d' >= r - 2*(q0*(q-1) - 1)."""
    if m < 1:
        raise InputError(f"m={m} must be >= 1")
    check_printable(6 * m + 4, "suzuki at this m")  # M = q^3 = 2^(6m+3) is the largest
    q0 = 2**m
    q = 2 * q0 * q0
    lo, hi = 2 * q0 * (q - 1) - 2, q * q
    if not lo < r < hi:
        raise InputError(f"r={r} outside ({lo}, {hi})")
    return FamilyParams(
        family="suzuki",
        q=q,
        n=q * q,
        m_tests=q**3,
        dprime_lb=r - 2 * (q0 * (q - 1) - 1),
        log_n_codewords=r + 1 - q0 * (q - 1),
        log_base=q,
        extras=(("q0", q0), ("t_suggested", q // 2)),
    )


# -- family table and ell selection ---------------------------------------------------------


# family -> (the params it reads besides t, evaluator(params, ell, dprime) -> BoundReport)
FAMILIES = {
    "nonbinary": (("q", "n"), lambda p, ell, dprime: eps_nonbinary(int(p["q"]), p["n"], p["t"], ell, dprime)),
    "cw-minkowski": (("M", "w"), lambda p, ell, dprime: eps_cw(p["M"], p["w"], p["t"], ell, dprime)),
    "cw-rosenthal": (("M", "w"), lambda p, ell, dprime: eps_cw_rosenthal(p["M"], p["w"], p["t"], ell, dprime)),
    "cw-l2": (("M", "w"), lambda p, ell, dprime: eps_cw_l2(p["M"], p["w"], p["t"], dprime)),
    "rs-asymptotic": (("q",), lambda p, ell, dprime: eps_rs(p["q"], p["t"], ell)),
}

_ELL_FAMILIES = ("cw-minkowski", "cw-rosenthal", "nonbinary")  # the RS display needs no d'


def best_even_ell(
    dprime: int, family: str, params: dict
) -> tuple[int, BoundReport, list[tuple[int, str]]]:
    """Evaluate `family` once at every even ell in [2, dprime) and return the minimizer.

    Returns (ell, its report, skipped), skipped listing (ell, its failed preconditions
    joined by ', ') for each ell dropped.  Ties break toward smaller ell; if every ell is
    dropped, the error names each with its failures.  Each ell is evaluated without
    dprime, so the chosen report equals a direct evaluation at that ell.
    """
    if family == "cw-l2":
        raise InputError("cw-l2 is ell=2 only; no ell to optimize")
    if dprime <= 2:
        raise InputError(f"dual distance {dprime} admits no even ell >= 2")
    if family not in _ELL_FAMILIES:
        raise InputError(f"unknown bound family {family!r}; ell selection supports "
                         f"{sorted(_ELL_FAMILIES)}")
    _charge_scan(dprime, 1)
    reports = [(ell, FAMILIES[family][1](params, ell, None)) for ell in range(2, dprime, 2)]
    skipped = [(ell, ", ".join(name for name, met in report.preconditions if not met))
               for ell, report in reports if not report.ok]
    admissible = [(ell, report) for ell, report in reports if report.ok]
    if not admissible:
        failures = "; ".join(f"ell={ell}: {failed}" for ell, failed in skipped)
        raise InputError(f"no admissible even ell satisfies the bound preconditions ({failures})")
    ell, report = min(admissible, key=lambda pair: pair[1].log_epsilon)
    return ell, report, skipped


def cw_bounds(m_len: int, w: int, t: int, dprime: int) -> list[dict]:
    """Each constant-weight report whose preconditions hold at dual distance `dprime`, as JSON with
    its ell: Minkowski and Rosenthal at every even ell < dprime, then the second moment (ell = 2)."""
    _charge_scan(dprime, 2)
    reports = [(ell, form(m_len, w, t, ell, dprime))
               for ell in range(2, dprime, 2) for form in (eps_cw, eps_cw_rosenthal)]
    reports.append((2, eps_cw_l2(m_len, w, t, dprime)))
    return [{**report.to_dict(), "ell": ell} for ell, report in reports if report.ok]
