import hashlib

import numpy as np
import pytest

from disjunct.errors import InputError
from disjunct.galois import Field, irreducible_modulus, is_prime, prime_power


def test_default_moduli():
    assert Field(2, 1).modulus == (0, 1)
    assert Field(2, 2).modulus == (1, 1, 1)  # the unique degree-2 irreducible
    assert Field(2, 3).modulus == (1, 1, 0, 1)
    assert Field(7, 1).q == 7


def test_modulus_is_deterministic_and_least():
    # x^3 + x + 1 encodes below x^3 + x^2 + 1 with the high coefficient most significant
    assert irreducible_modulus(2, 3) == (1, 1, 0, 1)
    assert irreducible_modulus(3, 2) == (1, 0, 1)  # x^2 + 1


def test_field_new_rejects_bad_parameters():
    with pytest.raises(InputError):
        Field(4, 1)  # not prime
    with pytest.raises(InputError):
        Field(2, 0)
    with pytest.raises(InputError):
        Field(2, 17)  # q > 2^16
    with pytest.raises(InputError):
        Field(2, 2, modulus=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(InputError):
        Field(2, 2, modulus=())


def test_arith_examples():
    f7 = Field(7, 1)
    assert f7.mul(3, 5) == 1
    assert f7.pow(0, 0) == 1 and f7.pow(0, 5) == 0 and f7.pow(3, -1) == 5
    assert f7.pow(np.array([0, 0, 2]), np.array([0, 1, 3])).tolist() == [1, 0, 1]
    assert f7.pow(3, 10**30 + 1) == pow(3, 10**30 + 1, 7) and f7.pow(0, 10**30) == 0
    f4 = Field(2, 2)
    alpha = 2
    assert f4.mul(alpha, alpha) == f4.add(alpha, 1) == 3  # alpha^2 = alpha + 1 under x^2 + x + 1
    assert f4.pow(alpha, 2) == 3
    for a in range(4):
        assert f4.add(a, 0) == a


def test_elements_order():
    f5 = Field(5, 1)
    assert [f5.coeffs(a) for a in range(5)] == [(0,), (1,), (2,), (3,), (4,)]
    f9 = Field(3, 2)
    assert f9.coeffs(5) == (2, 1)  # 5 = 2 + 1*3
    assert f9.from_coeffs((2, 1)) == 5
    # zero first, then lexicographic with the highest-degree coefficient most significant
    assert [f9.coeffs(a)[::-1] for a in range(9)] == sorted(f9.coeffs(a)[::-1] for a in range(9))
    assert all(f9.from_coeffs(f9.coeffs(a)) == a for a in range(9))


EXHAUSTIVE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6)]


@pytest.mark.parametrize("p,m", EXHAUSTIVE_FIELDS)
def test_field_axioms_exhaustive(p, m):
    fld = Field(p, m)
    q = fld.q
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            add[a, b] = fld.add(a, b)
            mul[a, b] = fld.mul(a, b)
    idx = np.arange(q)
    # commutativity
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    # associativity and distributivity via table composition
    x, y, z = np.meshgrid(idx, idx, idx, indexing="ij")
    assert np.array_equal(add[add[x, y], z], add[x, add[y, z]])
    assert np.array_equal(mul[mul[x, y], z], mul[x, mul[y, z]])
    assert np.array_equal(mul[x, add[y, z]], add[mul[x, y], mul[x, z]])
    # identities and inverses
    assert np.array_equal(add[idx, 0], idx) and np.array_equal(mul[idx, 1], idx)
    for a in range(1, q):
        assert mul[a, fld.inv(a)] == 1


@pytest.mark.parametrize("p,m", EXHAUSTIVE_FIELDS)
def test_multiplicative_group_cyclic(p, m):
    fld = Field(p, m)
    q = fld.q
    orders = [fld.element_order(a) for a in range(1, q)]
    assert all((q - 1) % o == 0 for o in orders)
    assert max(orders, default=1) == max(q - 1, 1)
    assert fld.element_order(fld.generator) == max(q - 1, 1)


@pytest.mark.parametrize("p,m", EXHAUSTIVE_FIELDS)
def test_array_ops_match_scalar_ops(p, m):
    fld = Field(p, m)
    q = fld.q
    a = np.repeat(np.arange(q), q).reshape(q, q)
    b = a.T.copy()
    nonzero = np.arange(1, q)
    e = np.arange(-3, 2 * q)
    inputs = [a, b, nonzero, e]
    before = [x.copy() for x in inputs]
    cases = [
        (fld.add, a, b),
        (fld.sub, a, b),
        (fld.mul, a, b),
        (fld.div, a[:, 1:], b[:, 1:]),
        (fld.pow, *np.broadcast_arrays(nonzero[:, None], e)),
        (fld.pow, np.zeros_like(e[3:]), e[3:]),
    ]
    for op, xs, ys in cases:
        got = op(xs, ys)
        assert got.dtype == np.int64
        want = [op(int(i), int(j)) for i, j in zip(xs.ravel(), ys.ravel())]
        assert all(type(v) is int for v in want)
        assert got.ravel().tolist() == want
    assert fld.neg(a[0]).tolist() == [fld.neg(int(i)) for i in a[0]]
    assert fld.inv(nonzero).tolist() == [fld.inv(int(i)) for i in nonzero]
    for x, y in zip(inputs, before):
        assert np.array_equal(x, y)


def test_int32_inputs_are_not_modified():
    f25 = Field(5, 2)
    words = np.arange(25, dtype=np.int32)
    out = f25.add(f25.mul(words, 7), words)
    assert np.array_equal(words, np.arange(25)) and out is not words
    assert f25.neg(words) is not words


@pytest.mark.parametrize(
    "p,m,generator,exp_sha256",
    [
        (2, 8, 3, "f986911d09152d58d6e94e767e41774ce3dc970f157ef2f78e1ca9f6c884a7d2"),
        (3, 5, 3, "08f5d9a478fb153afd4365273a4321da154fd1bf335bb1a1cc4c767d508bc0d4"),
        (7, 5, 9, "0ddd52cd671f7111d03a33962d8041e5e840701d6eca3c29245649fed6924beb"),
        (3, 10, 34, "8b72ef806188e20de00e4e2c4e6a5531022558bbd2fd14ab4024ba0dede7a0eb"),
        (2, 16, 3, "445206a09800a82c060b0975b209ff25d5ab8ff136dac0c28d93f6612e91a2ad"),
        (65521, 1, 17, "561453bc0ad6aed02f117911545d0cd23a5e435ac5c0fd79864506b0f78d1084"),
    ],
)
def test_generator_and_exp_table_pinned(p, m, generator, exp_sha256):
    """Pins taken from the list-built tables these arrays replaced."""
    fld = Field(p, m)
    assert fld.generator == generator and type(fld.generator) is int
    exp = fld.pow(generator, np.arange(fld.q - 1))
    assert hashlib.sha256(" ".join(map(str, exp.tolist())).encode()).hexdigest() == exp_sha256


def test_division_by_zero():
    f8 = Field(2, 3)
    with pytest.raises(ZeroDivisionError):
        f8.inv(0)
    with pytest.raises(ZeroDivisionError):
        f8.div(3, 0)
    with pytest.raises(ZeroDivisionError):
        f8.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        f8.inv(np.array([1, 0]))
    with pytest.raises(ZeroDivisionError):
        f8.pow(np.array([2, 0]), np.array([-1, -1]))


def test_element_index_out_of_range():
    f8 = Field(2, 3)
    for bad in (8, -1, np.array([0, 8])):
        with pytest.raises(InputError):
            f8.add(bad, 1)
        with pytest.raises(InputError):
            f8.mul(1, bad)
        with pytest.raises(InputError):
            f8.pow(bad, 2)


def test_prime_helpers():
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(91)
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None
