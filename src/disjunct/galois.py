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

The exp/log tables are built in a few vector passes: the map b -> b*g on
all q elements comes from the m images x^i * g, one digit place at a time,
and the exp table grows by doubling, log2(q-1) gathers in all.  Arithmetic
reads integer arrays of any width, so the uint8/uint16 words of a
`codes.QaryCode` go in as they are; results are int64, or are written into
a caller's array by `Field.add(..., out=)`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import InputError, check_budget

MAX_FIELD_ORDER = 1 << 16

_Elements = int | np.ndarray  # an element index, or an integer array of them


def _prime_divisors(n: int) -> Iterator[int]:
    """Distinct prime divisors of n, increasing (none for n < 2); lazy, so the smallest is cheap.
    Every 2^16 trial divisions are charged to the operations budget as they run, so factoring a
    field order up to 2^16 (at most 2^8 divisions) never reaches a check."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1
        if not d & 0xFFFF:
            check_budget(d - 2, "trial divisions toward the square root")
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


def irreducible_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible polynomial of degree m over GF(p).

    A reducible candidate has a monic factor of degree 1..m//2, so the first candidate
    with no zero remainder is it.

    f mod D is sum_i f_i (x^i mod D), so every remainder is one product with a table of
    x^i mod D, i = 0..m, for every monic D of degree 1..m//2: x^(i+1) mod D is x^i mod D
    shifted up one place, less its coefficient at D's degree times D.  Candidates are
    tested a batch at a time, each batch as large as all before it, and the divisors of
    degree d test only the survivors of the lower degrees.
    """
    if m == 1:
        return (0, 1)  # x: GF(p) elements reduce mod p directly
    half = m // 2
    starts = np.cumsum([0] + [p**d for d in range(1, half + 1)])  # degree d: rows [starts[d-1], starts[d])
    divisors = np.zeros((starts[-1], half + 1), dtype=np.int64)
    degree = np.zeros(starts[-1], dtype=np.int64)
    for d in range(1, half + 1):
        block = slice(starts[d - 1], starts[d])
        divisors[block, : d + 1] = np.arange(p**d, 2 * p**d)[:, None] // p ** np.arange(d + 1) % p  # monic
        degree[block] = d
    residues = np.zeros((m + 1, starts[-1], half + 1), dtype=np.int64)  # [i, D]: x^i mod D
    residues[0, :, 0] = 1
    for i in range(m):
        residues[i + 1, :, 1:] = residues[i, :, :-1]
        top = residues[i + 1, np.arange(starts[-1]), degree]
        residues[i + 1] = (residues[i + 1] - top[:, None] * divisors) % p
    tables = [residues[:, starts[d - 1] : starts[d], :d].reshape(m + 1, -1) for d in range(1, half + 1)]
    lo, hi = 0, 4
    while lo < p**m:
        v = np.arange(lo, min(hi, p**m))
        f = np.hstack([v[:, None] // p ** np.arange(m) % p, np.ones((len(v), 1), dtype=np.int64)])
        for d, table in enumerate(tables, 1):
            f = f[(f @ table % p).reshape(len(f), p**d, d).any(axis=2).all(axis=1)]
        if len(f):
            return tuple(f[0].tolist())
        lo, hi = hi, 2 * hi
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


def _matrix_powers(a: np.ndarray, exponents: list[int], p: int) -> list[np.ndarray]:
    """a^e over GF(p) for each e >= 1, for a stack a of square matrices.

    Square-and-multiply, with one chain of squarings shared by every exponent.
    """
    out = [None] * len(exponents)
    for bit in range(max(exponents, default=0).bit_length()):
        if bit:
            a = a @ a % p
        for i, e in enumerate(exponents):
            if e >> bit & 1:
                out[i] = a if out[i] is None else out[i] @ a % p
    return out


class Field:
    """GF(p^m) with integer-indexed elements and numpy exp/log tables.

    The arithmetic methods take element indices as Python ints or integer
    arrays of any width (broadcast against each other as numpy does).  An int
    in gives a Python int out, an array in gives a new int64 array, and no
    argument is modified but `add`'s `out`.

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

    def _elements(self, a: _Elements) -> np.ndarray:
        """`a` as an integer array of element indices, int64 unless it already is an integer array;
        raises if any lies outside [0, q)."""
        a = np.asarray(a)
        if a.dtype.kind not in "iu":
            a = a.astype(np.int64)
        bad = a[(a < 0) | (a >= self.q)]
        if bad.size:
            raise InputError(f"element index {bad[0]} outside [0, {self.q})")
        return a

    def _digitwise(self, a: _Elements, scale: int, b: np.ndarray) -> np.ndarray:
        """Element whose coefficients are those of a plus `scale` times those of b, mod p.

        a // p^i is c_i plus a multiple of p, so coefficient i needs no
        coefficient vectors: it is (a // p^i + scale * (b // p^i)) mod p.  The
        scale and places are int64 scalars, so narrow inputs are widened first.
        """
        out = (a + np.int64(scale) * b) % self.p  # p^i = 0 mod p for i >= 1
        for i in range(1, self.m):
            place = np.int64(self.p**i)
            digits = b // place if scale == 1 else scale * (b // place)
            out += (a // place + digits) % self.p * place
        return out

    # -- multiplicative structure -------------------------------------------

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log), read-only: exp[i] = g^i for the canonical generator g, log its inverse (log[0] = 0).

        g is the smallest element of order q-1: the least g whose GF(p) matrix T_g
        of multiplication (b's coefficient row times T_g is b*g's) has
        T_g^((q-1)/l) != I for every prime l | q-1, tested a batch of candidates
        at a time.  Row i of T_a is a * x^i = sum_c a_c x^(c+i), so a batch is
        one product of coefficient rows with the table of x^0 .. x^(2m-2).

        Then b -> b*g on all q elements is built one digit place at a time: the
        elements whose top digit c sits at place i are those below p^i plus
        c * x^i * g, row i of T_g times c.  The exp table doubles: exp[s:2s] is
        exp[:s] under b -> b*g^s, and that map composed with itself is b -> b*g^2s.
        """
        n, p, m = self.q - 1, self.p, self.m
        powers = [[1] + [0] * (m - 1)]  # coefficients of x^j, reduced by the monic modulus
        for _ in range(2 * m - 2):
            prev = powers[-1]
            powers.append([(c - prev[-1] * f) % p for c, f in zip([0, *prev[:-1]], self.modulus)])
        hankel = np.array(powers)[np.add.outer(np.arange(m), np.arange(m))].reshape(m, m * m)  # [c, i]: x^(c+i)
        places = p ** np.arange(m, dtype=np.int64)
        exponents = [n // ell for ell in _prime_divisors(n)]
        lo, hi = 1, 4
        while True:  # candidates [lo, hi), each batch as large as all before it
            digits = np.arange(lo, min(hi, self.q))[:, None] // places % p
            times = (digits @ hankel % p).reshape(-1, m, m)
            good = np.ones(len(times), dtype=bool)
            for power in _matrix_powers(times, exponents, p):
                good &= power[:, 0] @ places != 1  # row 0 of T_b holds b's coefficients
            if good.any():
                break
            lo, hi = hi, 2 * hi
        tops = np.arange(1, p)[:, None, None] * times[np.argmax(good)] % p @ places  # c * x^i * g
        step = np.zeros(self.q, dtype=np.int64)
        step[1:p] = tops[:, 0]  # c * g for c = 1..p-1
        for i in range(1, m):  # step[:p^i] is done; tops[:, i] extends it to p^(i+1)
            low = p**i
            self.add(step[:low], tops[:, i, None], out=step[low : p * low].reshape(p - 1, low))
        exp, s = np.ones(n, dtype=np.int64), 1
        while s < n:
            exp[s : 2 * s] = step[exp[: min(s, n - s)]]
            s *= 2
            if s < n:
                step = step[step]
        log = np.zeros(self.q, dtype=np.int64)
        log[exp] = np.arange(n)
        exp.flags.writeable = log.flags.writeable = False  # one pair for every caller
        return exp, log

    @property
    def generator(self) -> int:
        """Index of the canonical primitive element (smallest generator)."""
        return int(self._tables[0][1 % (self.q - 1)])  # exp[1]; GF(2) has exp = [1]

    # -- arithmetic on element indices ---------------------------------------

    def add(self, a: _Elements, b: _Elements, out: np.ndarray | None = None) -> _Elements:
        """a + b; with `out`, an integer array of the broadcast shape that holds q-1, the sum is
        written there and `out` returned.  In characteristic 2 the sum is the XOR of the indices,
        so narrow arrays in and out are added with no int64 copy."""
        a, b = self._elements(a), self._elements(b)
        if self.p == 2:
            return _result(np.bitwise_xor(a, b, out=out, dtype=np.int64 if out is None else out.dtype))
        if out is None:
            return _result(self._digitwise(a, 1, b))
        out[...] = self._digitwise(a, 1, b)
        return out

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
