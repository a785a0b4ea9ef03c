"""Distance distributions and their dual transforms, in exact arithmetic.

Pair counts are exact integers; every derived quantity (A_i, b_i, dual
spectra, moments) is a Fraction.  Floating point never enters this module:
moment identities are exact statements and are tested as equalities.

Conventions:
- Krawtchouk polynomials use the standard normalization
  K_j(i) = sum_l (-1)^l C(i,l) C(n-i, j-l) (q-1)^(j-l), which satisfies
  K_0 == 1 and makes the transform of a linear code's distance distribution
  equal the dual code's weight distribution.
- Dual spectra are normalized by the code size, so the 0th dual coefficient
  is exactly 1 in both the Hamming and Johnson schemes.
- Constant-weight distance index is i = w - |supp(x) & supp(y)|, i.e. half
  the Hamming distance between the indicator vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf
from typing import Sequence

import numpy as np

from .codes import ConstantWeightCode, QaryCode, MAX_SPECTRUM_PAIRS_N, linear_weights, overlap_profiles
from .errors import BudgetExceeded, InputError


def _comb0(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


# -- spectra -------------------------------------------------------------------


@dataclass(frozen=True)
class HammingSpectrum:
    """Ordered-pair distance counts of a q-ary code: counts[i] pairs at distance i."""

    n: int
    q: int
    size: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.counts[0] != self.size or sum(self.counts) != self.size**2:
            raise InputError("inconsistent pair counts")

    @property
    def distribution(self) -> tuple[Fraction, ...]:
        """A_i = counts_i / N, the average number of pairs at distance i."""
        return tuple(Fraction(c, self.size) for c in self.counts)

    def min_distance(self) -> float:
        return next((i for i in range(1, self.n + 1) if self.counts[i]), inf)


@dataclass(frozen=True)
class CWSpectrum:
    """Constant-weight pair counts indexed by i = w - |intersection| (distance 2i)."""

    length: int
    weight: int
    size: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.counts[0] != self.size or sum(self.counts) != self.size**2:
            raise InputError("inconsistent pair counts")

    @property
    def distribution(self) -> tuple[Fraction, ...]:
        """b_i = counts_i / N."""
        return tuple(Fraction(c, self.size) for c in self.counts)


@dataclass(frozen=True)
class DualSpectrum:
    """Normalized dual distribution; zeroth entry is 1, all entries >= 0 (Delsarte)."""

    values: tuple[Fraction, ...]
    dual_distance: float  # smallest j >= 1 with values[j] > 0, or inf


def hamming_spectrum(code: QaryCode, *, max_size: int = MAX_SPECTRUM_PAIRS_N) -> HammingSpectrum:
    """Exact distance counts over all N^2 ordered codeword pairs.

    A linear code's counts are N times its weight distribution (`codes.linear_weights`);
    any other code counts pairs, and only that pair loop is held to the `max_size` budget.
    """
    n_words = code.size
    if n_words < 1:
        raise InputError("spectrum of an empty code")
    weights = linear_weights(code.field, code.words)
    if weights is not None:
        counts = n_words * weights
    elif n_words > max_size:
        raise BudgetExceeded(f"N={n_words} exceeds exact pair-count budget {max_size}")
    else:
        words = code.words
        counts = np.zeros(code.n + 1, dtype=np.int64)
        chunk = max(1, (1 << 24) // max(1, n_words * code.n))
        for lo in range(0, n_words, chunk):
            d = (words[lo : lo + chunk, None, :] != words[None, :, :]).sum(axis=2)
            counts += np.bincount(d.ravel(), minlength=code.n + 1)
    return HammingSpectrum(code.n, code.q, n_words, tuple(counts.tolist()))


def cw_spectrum(code: ConstantWeightCode, *, max_size: int = MAX_SPECTRUM_PAIRS_N) -> CWSpectrum:
    """Exact intersection histogram over all N^2 ordered column pairs.

    It sums the overlap profiles of `codes.overlap_profiles`, which takes them from the
    weight distribution for the Kautz-Singleton image of a linear code, and counts pairs
    otherwise; only the pair count is held to the `max_size` budget.
    """
    n_cols = code.num_columns
    if n_cols < 1:
        raise InputError("spectrum of an empty code")
    profiles, multiplicities = overlap_profiles(code, max_size=max_size)
    counts = (multiplicities @ profiles)[::-1]  # index i = w - s
    return CWSpectrum(code.length, code.weight, n_cols, tuple(counts.tolist()))


# -- scheme polynomials ----------------------------------------------------------


def krawtchouk(q: int, n: int, j: int, i: int) -> int:
    """K_j(i) in the Hamming scheme H(n, q)."""
    if not (0 <= i <= n and 0 <= j <= n):
        raise InputError(f"degree/point ({j}, {i}) outside [0, {n}]")
    return sum(
        (-1) ** l * comb(i, l) * _comb0(n - i, j - l) * (q - 1) ** (j - l)
        for l in range(0, min(i, j) + 1)
    )


def eberlein(length: int, w: int, k: int, i: int) -> int:
    """E_k(i) in the Johnson scheme J(length, w)."""
    _check_johnson(length, w, k, i)
    return sum(
        (-1) ** j
        * comb(i, j)
        * _comb0(w - i, k - j)
        * _comb0(length - w - i, k - j)
        for j in range(0, min(i, k) + 1)
    )


def johnson_valency(length: int, w: int, i: int) -> int:
    """v_i = C(w, i) C(length - w, i)."""
    return comb(w, i) * _comb0(length - w, i)


def johnson_multiplicity(length: int, k: int) -> int:
    """mu_k = C(length, k) - C(length, k-1)."""
    return comb(length, k) - _comb0(length, k - 1)


def hahn(length: int, w: int, k: int, i: int) -> Fraction:
    """Q_k(i) = (mu_k / v_i) E_i(k) in the Johnson scheme J(length, w)."""
    _check_johnson(length, w, k, i)
    v = johnson_valency(length, w, i)
    if v == 0:
        raise InputError(f"valency v_{i} vanishes for J({length}, {w})")
    return Fraction(johnson_multiplicity(length, k) * eberlein(length, w, i, k), v)


def _check_johnson(length: int, w: int, k: int, i: int) -> None:
    if not 0 <= w <= length // 2:
        raise InputError(f"weight {w} outside [0, {length}//2]")
    if not (0 <= k <= w and 0 <= i <= w):
        raise InputError(f"degree/point ({k}, {i}) outside [0, {w}]")


# -- dual transforms ---------------------------------------------------------------


def dual_spectrum_hamming(spec: HammingSpectrum) -> DualSpectrum:
    """A'_j = (1/N) sum_i A_i K_j(i); for linear codes this is the dual's weight distribution."""
    n, q = spec.n, spec.q
    dist = spec.distribution
    values = []
    for j in range(n + 1):
        total = sum(dist[i] * krawtchouk(q, n, j, i) for i in range(n + 1))
        values.append(total / spec.size)
    return DualSpectrum(tuple(values), _first_positive(values))


def dual_spectrum_cw(spec: CWSpectrum) -> DualSpectrum:
    """b'_j = (1/N) sum_i b_i Q_j(i); the code is a design of strength d' - 1."""
    w = spec.weight
    dist = spec.distribution
    values = []
    for j in range(w + 1):
        total = sum(dist[i] * hahn(spec.length, w, j, i) for i in range(w + 1))
        values.append(total / spec.size)
    return DualSpectrum(tuple(values), _first_positive(values))


def _first_positive(values: Sequence[Fraction]) -> float:
    return next((j for j in range(1, len(values)) if values[j] > 0), inf)


# -- moments ------------------------------------------------------------------------


def stirling2(r: int, v: int) -> int:
    """Stirling number of the second kind S(r, v)."""
    if r < 0 or v < 0:
        raise InputError("Stirling numbers need nonnegative arguments")
    if v > r:
        return 0
    total = sum((-1) ** (v - i) * comb(v, i) * i**r for i in range(v + 1))
    assert total % _factorial(v) == 0
    return total // _factorial(v)


def _factorial(v: int) -> int:
    out = 1
    for i in range(2, v + 1):
        out *= i
    return out


@dataclass(frozen=True)
class MomentCheck:
    r: int
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def pless_power_moment(spec: HammingSpectrum, r: int) -> MomentCheck:
    """Both sides of the reduced power-moment identity (valid when r < d').

    LHS = sum_j j^r A_j.  RHS keeps only the 0th dual term:
    sum_v v! S(r, v) N q^(-v) (q-1)^v C(n, n-v), with N standing in for q^k.
    """
    if r < 0:
        raise InputError("moment order must be >= 0")
    lhs = sum(
        (Fraction(spec.counts[j], spec.size) * j**r for j in range(spec.n + 1)),
        Fraction(0),
    )
    rhs = sum(
        (
            Fraction(_factorial(v) * stirling2(r, v) * spec.size, spec.q**v)
            * (spec.q - 1) ** v
            * comb(spec.n, spec.n - v)
            for v in range(0, min(r, spec.n) + 1)
        ),
        Fraction(0),
    )
    return MomentCheck(r, lhs, rhs)


def central_moment_hamming(spec: HammingSpectrum, ell: int) -> Fraction:
    """(1/N) sum_j (j - theta*n)^ell A_j with theta = (q-1)/q."""
    if ell < 0:
        raise InputError("moment order must be >= 0")
    theta_n = Fraction(spec.n * (spec.q - 1), spec.q)
    total = sum(
        (spec.counts[j] * (j - theta_n) ** ell for j in range(spec.n + 1)),
        Fraction(0),
    )
    return total / spec.size**2


def binomial_central_moment(n: int, q: int, ell: int) -> Fraction:
    """sum_j (j - theta*n)^ell C(n,j) theta^j (1-theta)^(n-j), theta = (q-1)/q."""
    theta = Fraction(q - 1, q)
    theta_n = n * theta
    return sum(
        (
            (j - theta_n) ** ell * comb(n, j) * theta**j * (1 - theta) ** (n - j)
            for j in range(n + 1)
        ),
        Fraction(0),
    )


def hypergeometric_central_moment(length: int, w: int, r: int) -> Fraction:
    """E((X - EX)^r) for X = |random w-set intersection|, EX = w^2 / length."""
    if not 0 <= w <= length:
        raise InputError(f"weight {w} outside [0, {length}]")
    if r < 0:
        raise InputError("moment order must be >= 0")
    mean = Fraction(w * w, length)
    denom = comb(length, w)
    total = sum(
        (
            Fraction(comb(w, i) * _comb0(length - w, w - i), denom) * (i - mean) ** r
            for i in range(w + 1)
        ),
        Fraction(0),
    )
    return total


def cw_central_moment(spec: CWSpectrum, r: int) -> Fraction:
    """(1/N) sum_i (theta - i)^r b_i with theta = w(M-w)/M.

    Equals the hypergeometric central moment for r < d' and dominates it for
    every r (Sidelnikov inequality).
    """
    if r < 0:
        raise InputError("moment order must be >= 0")
    theta = Fraction(spec.weight * (spec.length - spec.weight), spec.length)
    total = sum(
        (spec.counts[i] * (theta - i) ** r for i in range(spec.weight + 1)),
        Fraction(0),
    )
    return total / spec.size**2


def cw_moment_checks(spec: CWSpectrum) -> list[MomentCheck]:
    """Spectrum central moments vs hypergeometric reference, r = 0..8."""
    return [
        MomentCheck(
            r,
            cw_central_moment(spec, r),
            hypergeometric_central_moment(spec.length, spec.weight, r),
        )
        for r in range(9)
    ]


def hamming_moment_checks(spec: HammingSpectrum) -> list[MomentCheck]:
    """Spectrum central moments vs binomial reference, r = 0..8."""
    return [
        MomentCheck(
            r,
            central_moment_hamming(spec, r),
            binomial_central_moment(spec.n, spec.q, r),
        )
        for r in range(9)
    ]


# -- report serialization -----------------------------------------------------------


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def spectrum_report(spec: HammingSpectrum | CWSpectrum) -> dict:
    """JSON-ready report: counts, normalized distribution, dual spectrum, moments."""
    if isinstance(spec, HammingSpectrum):
        dual = dual_spectrum_hamming(spec)
        head = {"kind": "hamming", "n": spec.n, "q": spec.q}
        checks = hamming_moment_checks(spec)
    else:
        dual = dual_spectrum_cw(spec)
        head = {"kind": "constant-weight", "M": spec.length, "w": spec.weight}
        checks = cw_moment_checks(spec)
    d = dual.dual_distance
    return {
        **head,
        "N": spec.size,
        "exact": True,  # every spectrum here is exact over all N^2 pairs
        "counts": list(spec.counts),
        "distribution": [frac_str(a) for a in spec.distribution],
        "dual": [frac_str(v) for v in dual.values],
        "dual_distance": "inf" if d == inf else int(d),
        "moment_checks": [
            {
                "r": c.r,
                "spectrum": frac_str(c.lhs),
                "reference": frac_str(c.rhs),
                "equal": c.equal,
                "below_dual_distance": c.r < d,
            }
            for c in checks
        ],
    }
