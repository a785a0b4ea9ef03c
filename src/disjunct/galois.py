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
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

MAX_FIELD_ORDER = 1 << 16

_Elements = int | np.ndarray  # an element index, or an integer array of them


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, m) with n = p^m and p prime, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            m = 0
            r = n
            while r % p == 0:
                r //= p
                m += 1
            return (p, m) if r == 1 else None
        p += 1
    return (n, 1)


# -- polynomial helpers over GF(p); dense coefficient lists, index = degree --


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_modpoly(out, mod, p)


def _poly_modpoly(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        if a[i]:
            c = (a[i] * inv_lead) % p
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _poly_trim(a)


def _poly_powmod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _poly_modpoly(a, mod, p)
    while e > 0:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a = _poly_modpoly(a, b, p)
        a, b = b, a
    return a


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Rabin's irreducibility test for a monic polynomial over GF(p)."""
    m = len(poly) - 1
    if m < 1:
        return False
    x = [0, 1]
    # x^(p^m) == x (mod poly)
    h = x
    for _ in range(m):
        h = _poly_powmod(h, p, poly, p)
    hx = _poly_trim([(c - d) % p for c, d in _zip_pad(h, x)])
    if hx:
        return False
    # gcd(x^(p^(m/l)) - x, poly) == 1 for every prime l | m
    for ell in _prime_divisors(m):
        d = m // ell
        h = x
        for _ in range(d):
            h = _poly_powmod(h, p, poly, p)
        g = _poly_gcd([(c - e) % p for c, e in _zip_pad(h, x)], poly, p)
        if len(g) != 1:
            return False
    return True


def _zip_pad(a: Sequence[int], b: Sequence[int]) -> Iterable[tuple[int, int]]:
    n = max(len(a), len(b))
    return ((a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(n))


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def irreducible_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible polynomial of degree m over GF(p)."""
    if m == 1:
        return (0, 1)  # x itself: GF(p) elements reduce mod p directly
    for v in range(p**m):
        coeffs = [(v // p**i) % p for i in range(m)] + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


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
        if not is_prime(p):
            raise InputError(f"characteristic {p} is not prime")
        if m < 1:
            raise InputError(f"extension degree must be >= 1, got {m}")
        q = p**m
        if q > MAX_FIELD_ORDER:
            raise InputError(f"field order {q} exceeds limit {MAX_FIELD_ORDER}")
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

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log): exp[i] = g^i for the canonical generator g, log its inverse (log[0] = 0).

        Multiplying by g is GF(p)-linear on coefficient vectors: a*g is
        sum_i a_i * (g * x^i), and each g * x^i comes from the previous one
        by a shift and one reduction by the modulus.  One matrix product
        maps all q elements at once; the exp table is the orbit of 1.
        """
        places = self.p ** np.arange(self.m, dtype=np.int64)
        coeffs = np.arange(self.q, dtype=np.int64)[:, None] // places % self.p
        low = np.array(self.modulus[:-1], dtype=np.int64)  # x^m = -low
        basis = [coeffs[self._find_generator()]]
        for _ in range(self.m - 1):
            prev = basis[-1]
            basis.append((np.concatenate([[0], prev[:-1]]) - prev[-1] * low) % self.p)
        step = ((coeffs @ np.array(basis)) % self.p @ places).tolist()
        exp = [1] * (self.q - 1)
        for i in range(1, self.q - 1):
            exp[i] = step[exp[i - 1]]
        if step[exp[-1]] != 1:
            raise RuntimeError("generator order mismatch; modulus not irreducible?")
        log = np.zeros(self.q, dtype=np.int64)
        log[exp] = np.arange(self.q - 1)
        return np.array(exp, dtype=np.int64), log

    def _find_generator(self) -> int:
        # smallest index whose multiplicative order is q-1
        n = self.q - 1
        primes = _prime_divisors(n) if n > 1 else []
        mod = list(self.modulus)
        for g in range(1, self.q):
            if all(_poly_powmod(list(self.coeffs(g)), n // ell, mod, self.p) != [1] for ell in primes):
                return g
        raise RuntimeError("no generator found")

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
