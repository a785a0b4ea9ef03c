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

Both schemes share one core: a `_PairCounts` spectrum, one dual transform
`_dual` over the scheme's eigenvalues (Krawtchouk, Hahn), and one centred power
sum `_central` for a spectrum and its reference law (binomial, hypergeometric).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, inf
from typing import Callable, Sequence

import numpy as np

from .codes import ConstantWeightCode, QaryCode, linear_weights
from .errors import InputError, check_budget


def _comb0(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


# -- spectra -------------------------------------------------------------------


@dataclass(frozen=True)
class _PairCounts:
    """Ordered-pair counts of a code in an association scheme: counts[i] pairs in class i."""

    size: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.counts[0] != self.size or sum(self.counts) != self.size**2:
            raise InputError("inconsistent pair counts")

    @property
    def distribution(self) -> tuple[Fraction, ...]:
        """A_i (b_i in J(M, w)) = counts_i / N, the mean number of codewords in class i of one."""
        return tuple(Fraction(c, self.size) for c in self.counts)


@dataclass(frozen=True)
class HammingSpectrum(_PairCounts):
    """Distance counts of a q-ary code of length n: counts[i] pairs at distance i."""

    n: int
    q: int


@dataclass(frozen=True)
class CWSpectrum(_PairCounts):
    """Constant-weight pair counts indexed by i = w - |intersection| (distance 2i)."""

    length: int
    weight: int


@dataclass(frozen=True)
class DualSpectrum:
    """Normalized dual distribution; zeroth entry is 1, all entries >= 0 (Delsarte)."""

    values: tuple[Fraction, ...]
    dual_distance: float  # smallest j >= 1 with values[j] > 0, or inf


def hamming_spectrum(code: QaryCode) -> HammingSpectrum:
    """Exact distance counts over all N^2 ordered codeword pairs.

    A linear code's counts are N times its weight distribution (`codes.linear_weights`);
    any other code counts its N^2 pairs, and only that pair loop is held to the operations budget.
    """
    n_words = code.size
    if n_words < 1:
        raise InputError("spectrum of an empty code")
    weights = linear_weights(code.field, code.words)
    if weights is not None:
        counts = n_words * weights
    else:
        check_budget(n_words * n_words, f"pair count over {n_words}^2 word pairs")
        words = code.words
        counts = np.zeros(code.n + 1, dtype=np.int64)
        chunk = max(1, (1 << 24) // max(1, n_words * code.n))
        for lo in range(0, n_words, chunk):
            d = (words[lo : lo + chunk, None, :] != words[None, :, :]).sum(axis=2)
            counts += np.bincount(d.ravel(), minlength=code.n + 1)
    return HammingSpectrum(n_words, tuple(counts.tolist()), n=code.n, q=code.q)


def cw_spectrum(code: ConstantWeightCode) -> CWSpectrum:
    """Exact intersection histogram over all N^2 ordered column pairs.

    It sums the `overlap_profiles` of the code, which come from the
    weight distribution for the Kautz-Singleton image of a linear code, and counts pairs
    otherwise; only the pair count is held to the operations budget.
    """
    n_cols = code.num_columns
    if n_cols < 1:
        raise InputError("spectrum of an empty code")
    profiles, multiplicities = code.overlap_profiles
    counts = (multiplicities @ profiles)[::-1]  # index i = w - s
    return CWSpectrum(n_cols, tuple(counts.tolist()), length=code.length, weight=code.weight)


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


def _dual(spec: _PairCounts, eigen: Callable[[int, int], int | Fraction]) -> DualSpectrum:
    """(1/N) sum_i dist_i eigen(j, i) for every degree j, with the scheme's dual eigenvalues."""
    dist = spec.distribution
    classes = range(len(dist))
    values = [sum(dist[i] * eigen(j, i) for i in classes) / spec.size for j in classes]
    return DualSpectrum(tuple(values), next((j for j in classes[1:] if values[j] > 0), inf))


def dual_spectrum_hamming(spec: HammingSpectrum) -> DualSpectrum:
    """A'_j = (1/N) sum_i A_i K_j(i); for linear codes this is the dual's weight distribution."""
    return _dual(spec, partial(krawtchouk, spec.q, spec.n))


def dual_spectrum_cw(spec: CWSpectrum) -> DualSpectrum:
    """b'_j = (1/N) sum_i b_i Q_j(i); the code is a design of strength d' - 1."""
    return _dual(spec, partial(hahn, spec.length, spec.weight))


# -- moments ------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentCheck:
    r: int
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def _central(weights: Sequence[int | Fraction], xs: Sequence[int], mean: Fraction, r: int) -> Fraction:
    """sum_i weights_i (xs_i - mean)^r, exactly."""
    if r < 0:
        raise InputError("moment order must be >= 0")
    return sum((p * (x - mean) ** r for p, x in zip(weights, xs)), Fraction(0))


def _binomial(n: int, q: int) -> tuple[list[Fraction], range, Fraction]:
    """H(n, q): distance j of two uniform words, C(n, j) (q-1)^j / q^n, mean n(q-1)/q."""
    law = [Fraction(comb(n, j) * (q - 1) ** j, q**n) for j in range(n + 1)]
    return law, range(n + 1), Fraction(n * (q - 1), q)


def _hypergeometric(length: int, w: int) -> tuple[list[Fraction], range, Fraction]:
    """J(length, w): intersection w - i of two uniform w-sets, v_i / C(length, w), mean w^2/length."""
    if not 0 <= w <= length:
        raise InputError(f"weight {w} outside [0, {length}]")
    law = [Fraction(johnson_valency(length, w, i), comb(length, w)) for i in range(w + 1)]
    return law, range(w, -1, -1), Fraction(w * w, length)


def _law(spec: HammingSpectrum | CWSpectrum) -> tuple[list[Fraction], range, Fraction]:
    """The scheme's reference law (class i of two uniform points, valency_i / #points)."""
    if isinstance(spec, HammingSpectrum):
        return _binomial(spec.n, spec.q)
    return _hypergeometric(spec.length, spec.weight)


def _pair_moment(spec: HammingSpectrum | CWSpectrum, r: int) -> Fraction:
    """(1/N^2) sum_i counts_i (x_i - mean)^r, centred as the scheme's reference law."""
    _, xs, mean = _law(spec)
    return _central(spec.counts, xs, mean, r) / spec.size**2


def central_moment_hamming(spec: HammingSpectrum, ell: int) -> Fraction:
    """(1/N^2) sum_j counts_j (j - theta*n)^ell with theta = (q-1)/q."""
    return _pair_moment(spec, ell)


def cw_central_moment(spec: CWSpectrum, r: int) -> Fraction:
    """(1/N^2) sum_i counts_i (theta - i)^r, theta = w(M-w)/M; hypergeometric for r < d'."""
    return _pair_moment(spec, r)


def binomial_central_moment(n: int, q: int, ell: int) -> Fraction:
    """sum_j (j - theta*n)^ell C(n,j) theta^j (1-theta)^(n-j), theta = (q-1)/q."""
    return _central(*_binomial(n, q), ell)


def hypergeometric_central_moment(length: int, w: int, r: int) -> Fraction:
    """E((X - EX)^r) for X = |random w-set intersection|, EX = w^2 / length."""
    return _central(*_hypergeometric(length, w), r)


def moment_checks(spec: HammingSpectrum | CWSpectrum) -> list[MomentCheck]:
    """Spectrum central moments vs the scheme's reference law, r = 0..8; equal for r < d'."""
    law = _law(spec)
    return [MomentCheck(r, _pair_moment(spec, r), _central(*law, r)) for r in range(9)]


# -- report serialization -----------------------------------------------------------


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def spectrum_report(spec: HammingSpectrum | CWSpectrum) -> dict:
    """JSON-ready report: counts, normalized distribution, dual spectrum, moments."""
    if isinstance(spec, HammingSpectrum):
        dual = dual_spectrum_hamming(spec)
        head = {"kind": "hamming", "n": spec.n, "q": spec.q}
    else:
        dual = dual_spectrum_cw(spec)
        head = {"kind": "constant-weight", "M": spec.length, "w": spec.weight}
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
            for c in moment_checks(spec)
        ],
    }
