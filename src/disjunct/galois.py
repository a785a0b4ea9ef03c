"""Finite-field arithmetic GF(p^m).

Elements are indexed 0..q-1 by their coefficient vector in the polynomial
basis: the element with coefficients (c_0, ..., c_{m-1}) (c_i multiplying
x^i) has index sum(c_i * p^i).  Index order is the canonical element order
used everywhere else in the package: zero first, then lexicographic by
coefficients with the highest-degree coefficient most significant.  The
index of a symbol is also its indicator position inside a column block of
a Kautz-Singleton matrix.

The modulus is always the lexicographically least monic irreducible
polynomial of degree m over GF(p) (same significance order as above), so
fields and everything built on them are reproducible.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import InputError

MAX_FIELD_ORDER = 1 << 16

_Elements = int | np.ndarray  # an element index, or an integer array of them


def _prime_divisors(n: int) -> Iterator[int]:
    """Distinct prime divisors of n, increasing (none for n < 2); lazy, so the smallest is cheap."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        yield n


def is_prime(n: int) -> bool:
    return next(_prime_divisors(n), None) == n


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, m) with n = p^m and p prime, or None."""
    p = next(_prime_divisors(n), None)  # the smallest prime factor
    if p is None:
        return None
    m = 1
    while p**m < n:
        m += 1
    return (p, m) if p**m == n else None


def check_order(q: int) -> None:
    """Refuse a field of order q above MAX_FIELD_ORDER; cheap, so it runs before any factoring."""
    if q > MAX_FIELD_ORDER:
        raise InputError(f"field order {q} exceeds limit {MAX_FIELD_ORDER}")


def _remainders(f: np.ndarray, d: int, p: int) -> np.ndarray:
    """Row v: f mod the monic degree-d divisor whose low coefficients are the digits of v.

    One long division of all p^d rows; each remainder fills columns [0, d), the rest are zero.
    """
    divisors = np.arange(p**d, 2 * p**d)[:, None] // p ** np.arange(d + 1) % p  # v + p^d: monic
    r = np.tile(f, (p**d, 1))
    for i in range(len(f) - 1, d - 1, -1):  # cancel coefficient i with a multiple of x^(i-d)
        r[:, i - d : i + 1] = (r[:, i - d : i + 1] - r[:, i : i + 1] * divisors) % p
    return r


def irreducible_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible polynomial of degree m over GF(p).

    A reducible candidate has a monic factor of degree 1..m//2, so the first candidate
    with no zero remainder is it.  For m = 1 that is x: GF(p) elements reduce mod p directly.
    """
    for v in range(p**m):
        f = np.array([v // p**i % p for i in range(m)] + [1], dtype=np.int64)
        if all(_remainders(f, d, p).any(axis=1).all() for d in range(1, m // 2 + 1)):
            return tuple(f.tolist())
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


def _matrix_power(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e over GF(p) by square-and-multiply."""
    out = np.eye(len(a), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ a % p
        a = a @ a % p
        e >>= 1
    return out


class Field:
    """GF(p^m) with integer-indexed elements and numpy exp/log tables.

    The arithmetic methods take element indices as Python ints or integer
    arrays (broadcast against each other as numpy does).  An int in gives a
    Python int out, an array in gives a new int64 array, and no argument is
    modified.

    Parameters
    ----------
    p : prime characteristic
    m : extension degree >= 1; the modulus is `irreducible_modulus(p, m)`.
    """

    def __init__(self, p: int, m: int):
        if m < 1:
            raise InputError(f"extension degree must be >= 1, got {m}")
        q = p**m
        check_order(q)  # before factoring p
        if not is_prime(p):
            raise InputError(f"characteristic {p} is not prime")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = irreducible_modulus(p, m)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self) -> int:
        return hash((self.p, self.m))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, m={self.m}, modulus={self.modulus})"

    # -- index <-> coefficient views ---------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{m-1}) of element index a."""
        if not 0 <= a < self.q:
            raise InputError(f"element index {a} outside [0, {self.q})")
        return tuple((a // self.p**i) % self.p for i in range(self.m))

    def _elements(self, a: _Elements) -> np.ndarray:
        """`a` as an int64 array of element indices; raises if any lies outside [0, q)."""
        a = np.asarray(a, dtype=np.int64)
        bad = a[(a < 0) | (a >= self.q)]
        if bad.size:
            raise InputError(f"element index {bad[0]} outside [0, {self.q})")
        return a

    def _digitwise(self, a: _Elements, scale: int, b: np.ndarray) -> np.ndarray:
        """Element whose coefficients are those of a plus `scale` times those of b, mod p.

        a // p^i is c_i plus a multiple of p, so coefficient i needs no
        coefficient vectors: it is (a // p^i + scale * (b // p^i)) mod p.
        """
        out = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.int64)
        for i in range(self.m):
            place = self.p**i
            out += (a // place + scale * (b // place)) % self.p * place
        return out

    # -- multiplicative structure -------------------------------------------

    def _times(self, a: int) -> np.ndarray:
        """The m x m GF(p) matrix T_a of multiplication by a: b's coefficient row times T_a is a*b's.

        Row i holds a * x^i, the previous row shifted and reduced once by the modulus.
        """
        low = np.array(self.modulus[:-1], dtype=np.int64)  # x^m = -low
        rows = [np.array(self.coeffs(a), dtype=np.int64)]
        for _ in range(self.m - 1):
            prev = rows[-1]
            rows.append((np.concatenate([[0], prev[:-1]]) - prev[-1] * low) % self.p)
        return np.array(rows)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log): exp[i] = g^i for the canonical generator g, log its inverse (log[0] = 0).

        g is the smallest element of order q-1: the least g whose matrix T_g
        has T_g^((q-1)/l) != I for every prime l | q-1.  One product with T_g
        maps all q elements at once; the exp table is the orbit of 1.
        """
        n, eye = self.q - 1, np.eye(self.m, dtype=np.int64)
        primes = list(_prime_divisors(n))
        times = next(
            t for t in map(self._times, range(1, self.q))
            if all(not np.array_equal(_matrix_power(t, n // ell, self.p), eye) for ell in primes)
        )
        places = self.p ** np.arange(self.m, dtype=np.int64)
        coeffs = np.arange(self.q, dtype=np.int64)[:, None] // places % self.p
        step = ((coeffs @ times) % self.p @ places).tolist()
        exp = [1] * n
        for i in range(1, n):
            exp[i] = step[exp[i - 1]]
        log = np.zeros(self.q, dtype=np.int64)
        log[exp] = np.arange(n)
        return np.array(exp, dtype=np.int64), log

    @property
    def generator(self) -> int:
        """Index of the canonical primitive element (smallest generator)."""
        return int(self._tables[0][1 % (self.q - 1)])  # exp[1]; GF(2) has exp = [1]

    # -- arithmetic on element indices ---------------------------------------

    def add(self, a: _Elements, b: _Elements) -> _Elements:
        a, b = self._elements(a), self._elements(b)
        if self.p == 2:
            return _result(a ^ b)
        return _result(self._digitwise(a, 1, b))

    def neg(self, a: _Elements) -> _Elements:
        return _result(self._digitwise(0, -1, self._elements(a)))

    def sub(self, a: _Elements, b: _Elements) -> _Elements:
        return self.add(a, self.neg(b))

    def mul(self, a: _Elements, b: _Elements) -> _Elements:
        a, b = self._elements(a), self._elements(b)
        exp, log = self._tables
        prod = exp[(log[a] + log[b]) % (self.q - 1)]
        return _result(np.where((a == 0) | (b == 0), 0, prod))

    def inv(self, a: _Elements) -> _Elements:
        a = self._elements(a)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        exp, log = self._tables
        return _result(exp[-log[a] % (self.q - 1)])

    def div(self, a: _Elements, b: _Elements) -> _Elements:
        return self.mul(a, self.inv(b))

    def pow(self, a: _Elements, e: _Elements) -> _Elements:
        """a^e for integer exponents e of any size; 0^0 = 1."""
        a, e = self._elements(a), np.asarray(e)
        zero = a == 0
        if np.any(zero & (e < 0)):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        exp, log = self._tables
        n = self.q - 1
        reduced = np.asarray(e % n, dtype=np.int64)  # an exponent past int64 reduces first
        return _result(np.where(zero, e == 0, exp[log[a] * reduced % n]))


def _result(x: np.ndarray) -> _Elements:
    """A Python int for a 0-d result, else the array itself."""
    return int(x) if np.ndim(x) == 0 else x
