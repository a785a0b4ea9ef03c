"""False-positive probability bounds and code-family parameter calculators.

Every bound is evaluated in log space first (the factor min{(18*l*t)^(l/2),
t^l} alone overflows doubles for modest l*t) and exponentiated at the end.
A result with epsilon >= 1 is returned with the trivial flag set rather
than rejected: probing where a bound breaks down is a legitimate use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .galois import prime_power
from .spectra import frac_str


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
        return math.exp(self.log_epsilon)

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


def _report(formula, params, pre, log_eps, note=None) -> BoundReport:
    if not all(met for _, met in pre):
        log_eps = None
    return BoundReport(formula, tuple(params), tuple(pre), log_eps, note)


def _log_geom_sum(log_x: float, terms: int) -> float:
    """log(sum_{i=0}^{terms-1} x^i) for x = exp(log_x), stable for any magnitude."""
    logs = [i * log_x for i in range(terms)]
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def b_factor(ell: int, t: int) -> float:
    """min{(18*ell*t)^(ell/2), t^ell}; the moment-inequality prefactor."""
    return math.exp(log_b_factor(ell, t))


def log_b_factor(ell: int, t: int) -> float:
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
    pre = [
        ("ell even and >= 2", ell >= 2 and ell % 2 == 0),
        ("t >= 1", t >= 1),
        ("t <= q", t <= q),
        ("t < q (finite bound)", t < q),
        ("n >= 1", n >= 1),
    ]
    if dprime is not None:
        pre.append(("ell < dual distance", ell < dprime))
    params = [("q", q), ("n", n), ("t", t), ("ell", ell)]
    if not all(m for _, m in pre):
        return _report("nonbinary", params, pre, None)
    log_eps = (
        log_b_factor(ell, t)
        + (ell / 2)
        * (1 + math.log(ell) + math.log(q - 1) - math.log(2 * n) - 2 * math.log(q - t))
        + _log_geom_sum(math.log((q - 1) * ell) - math.log(2 * n) - 1, ell // 2 + 1)
    )
    return _report("nonbinary", params, pre, log_eps)


def eps_cw(m_len: int, w: int, t: int, ell: int, dprime: int | None = None) -> BoundReport:
    """Constant-weight code of length M, weight w, dual distance > ell.

    epsilon <= B(ell,t) * (e*ell*(M-w) / (2(M-tw)^2))^(ell/2)
              * sum_{i=0}^{ell/2} ((M-w)*ell / (2*e*w^2))^i
    """
    _check_weight(w)
    pre = [
        ("ell even and >= 2", ell >= 2 and ell % 2 == 0),
        ("t >= 1", t >= 1),
        ("w < M/2", 2 * w < m_len),
        ("t < M/w", t * w < m_len),
    ]
    if dprime is not None:
        pre.append(("ell < dual distance", ell < dprime))
    params = [("M", m_len), ("w", w), ("t", t), ("ell", ell)]
    if not all(m for _, m in pre):
        return _report("cw-minkowski", params, pre, None)
    log_eps = (
        log_b_factor(ell, t)
        + (ell / 2)
        * (1 + math.log(ell) + math.log(m_len - w) - math.log(2) - 2 * math.log(m_len - t * w))
        + _log_geom_sum(
            math.log((m_len - w) * ell) - math.log(2 * w * w) - 1, ell // 2 + 1
        )
    )
    return _report("cw-minkowski", params, pre, log_eps)


def eps_cw_rosenthal(
    m_len: int, w: int, t: int, ell: int, dprime: int | None = None
) -> BoundReport:
    """Rosenthal-inequality variant: epsilon <= t * (2*ell^2*(M-w) / (log(ell)*w*(M-tw)))^ell.

    Needs M >= max{4*w^2*t/ell^2, w + 2*e*w^2/ell}; log is natural.
    """
    _check_weight(w)
    pre = [
        ("ell even and >= 2", ell >= 2 and ell % 2 == 0),
        ("t >= 1", t >= 1),
        ("t < M/w", t * w < m_len),
        ("M >= 4*w^2*t/ell^2", ell >= 2 and m_len >= 4 * w * w * t / ell**2),
        ("M >= w + 2*e*w^2/ell", ell >= 2 and m_len >= w + 2 * math.e * w * w / ell),
    ]
    if dprime is not None:
        pre.append(("ell < dual distance", ell < dprime))
    params = [("M", m_len), ("w", w), ("t", t), ("ell", ell)]
    if not all(m for _, m in pre):
        return _report("cw-rosenthal", params, pre, None)
    log_eps = math.log(t) + ell * (
        math.log(2 * ell * ell)
        + math.log(m_len - w)
        - math.log(math.log(ell))
        - math.log(w)
        - math.log(m_len - t * w)
    )
    return _report("cw-rosenthal", params, pre, log_eps)


def eps_cw_l2(m_len: int, w: int, t: int, dprime: int | None = None) -> BoundReport:
    """Second-moment bound: epsilon < t*(M-w)^2 / ((M-1)*(M-wt)^2); needs d' >= 3."""
    _check_weight(w)
    pre = [
        ("t >= 1", t >= 1),
        ("w*t < M", w * t < m_len),
        ("M >= 2", m_len >= 2),
    ]
    if dprime is not None:
        pre.append(("dual distance > 2", dprime > 2))
    params = [("M", m_len), ("w", w), ("t", t)]
    if not all(m for _, m in pre):
        return _report("cw-l2", params, pre, None)
    log_eps = (
        math.log(t)
        + 2 * math.log(m_len - w)
        - math.log(m_len - 1)
        - 2 * math.log(m_len - w * t)
    )
    return _report("cw-l2", params, pre, log_eps)


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
    pre = [
        ("ell even and >= 2", ell >= 2 and ell % 2 == 0),
        ("t >= 1", t >= 1),
        ("q > t", q > t),
    ]
    params = [("q", q), ("t", t), ("ell", ell)]
    if not all(m for _, m in pre):
        return _report("rs-asymptotic", params, pre, None, note="asymptotic display")
    feasible = q > 2.13 * ell**1.5 * math.sqrt(t) + t
    pre.append(("q > 2.13*ell^1.5*sqrt(t) + t", feasible))
    log_eps = (
        math.log(ell)
        - math.log(2)
        - 1
        + ell
        * (math.log(2.13) + 1.5 * math.log(ell) + 0.5 * math.log(t) - math.log(q - t))
    )
    report = BoundReport(
        "rs-asymptotic", tuple(params), tuple(pre), log_eps, note="asymptotic display"
    )
    return report


def rs_feasible(q: float, t: int, ell: int) -> bool:
    """The eps_rs smallness condition q > 2.13*ell^1.5*sqrt(t) + t."""
    return q > 2.13 * ell**1.5 * math.sqrt(t) + t


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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "r": self.r,
            "bound": self.bound,
            "exact": frac_str(self.exact),
            "exact_float": float(self.exact),
            "simplified_applies": self.simplified_applies,
            "simplified": self.simplified,
            "holds": self.holds,
        }


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
    if prime_power(q0) is None:
        raise InputError(f"q0={q0} must be a prime power")
    lo, hi = q0 * q0 - q0 - 2, q0**6
    if not lo <= r <= hi:
        raise InputError(f"r={r} outside [{lo}, {hi}]")
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


# -- ell selection and corollary conditions -----------------------------------------


_FAMILY_EVALUATORS = {
    "nonbinary": lambda p, ell: eps_nonbinary(p["q"], p["n"], p["t"], ell),
    "cw-minkowski": lambda p, ell: eps_cw(p["M"], p["w"], p["t"], ell),
    "cw-rosenthal": lambda p, ell: eps_cw_rosenthal(p["M"], p["w"], p["t"], ell),
}


def _even_ell_reports(dprime: int, family: str, params: dict) -> list[tuple[int, BoundReport]]:
    """`family` evaluated at every even ell in [2, dprime), smallest ell first."""
    if dprime <= 2:
        raise InputError(f"dual distance {dprime} admits no even ell >= 2")
    if family not in _FAMILY_EVALUATORS:
        raise InputError(f"unknown bound family {family!r}; ell selection supports "
                         f"{sorted(_FAMILY_EVALUATORS)}")
    evaluate = _FAMILY_EVALUATORS[family]
    return [(ell, evaluate(params, ell)) for ell in range(2, dprime, 2)]


def _skipped_ells(reports: list[tuple[int, BoundReport]]) -> list[tuple[int, str]]:
    """(ell, its failed preconditions joined by ', ') for every ell whose bound does not apply."""
    return [
        (ell, ", ".join(name for name, met in report.preconditions if not met))
        for ell, report in reports
        if not report.ok
    ]


def best_even_ell(dprime: int, family: str, params: dict) -> tuple[int, BoundReport]:
    """Evaluate `family` at every even ell in [2, dprime) and return the minimizer.

    Ties break toward smaller ell; ells whose preconditions fail are skipped,
    and if every ell is skipped the error names each one with its failures.
    """
    reports = _even_ell_reports(dprime, family, params)
    admissible = [(ell, report) for ell, report in reports if report.ok]
    if not admissible:
        failures = "; ".join(f"ell={ell}: {failed}" for ell, failed in _skipped_ells(reports))
        raise InputError(f"no admissible even ell satisfies the bound preconditions ({failures})")
    return min(admissible, key=lambda pair: pair[1].log_epsilon)


def check_cor_conditions(m_len: int, w: int, t: int, ell: int) -> dict[str, bool]:
    """The strict feasibility conditions under which the Rosenthal bound decays in ell."""
    log_ell = math.log(ell) if ell > 1 else float("nan")
    return {
        "w > 2*ell^2/log(ell)": ell > 1 and w > 2 * ell * ell / log_ell,
        "M > 4*w^2*t/ell^2": m_len > 4 * w * w * t / ell**2,
        "M > w + 2*e*w^2/ell": m_len > w + 2 * math.e * w * w / ell,
        "M > w*t*log(ell)": ell > 1 and m_len > w * t * log_ell,
    }
