import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_min_distance, dense_syndrome_supports, gf2_rank_dense
from disjunct.codes import (
    BinaryMatrix,
    ConstantWeightCode,
    QaryCode,
    bch_code,
    fixed_weight_subcode,
    kautz_singleton,
    load_design,
    matrix_digest,
    pack_bits,
    read_code,
    read_design,
    read_matrix,
    rs_code,
    write_code,
    write_matrix,
)
from disjunct.errors import BudgetExceeded, InputError
from disjunct.galois import Field
from disjunct.instances import FANO_BLOCKS


# -- Reed-Solomon -----------------------------------------------------------------


def test_rs_repetition_case():
    code = rs_code(Field(5, 1), 1)
    assert code.size == 5 and code.n == 4
    assert all(len(set(map(int, row))) == 1 for row in code.words)
    assert code.min_distance() == 4


def test_rs_52_parameters():
    code = rs_code(Field(5, 1), 2)
    assert code.size == 25 and code.min_distance() == 3


def test_rs_83_exhaustive_distance():
    code = rs_code(Field(2, 3), 3)
    assert code.size == 512
    assert brute_force_min_distance(code.words) == 5


@pytest.mark.parametrize("q,k", [(4, 2), (5, 2), (5, 3), (7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 3)])
def test_rs_is_mds(q, k):
    from disjunct.galois import prime_power

    code = rs_code(Field(*prime_power(q)), k)
    assert code.min_distance() == code.n - k + 1


@pytest.mark.parametrize("p,m,k", [(3, 2, 3), (5, 2, 2), (3, 3, 2), (7, 2, 2)])
def test_rs_matches_scalar_horner(p, m, k):
    """Odd-characteristic extension fields, where array addition is digit-wise."""
    fld = Field(p, m)
    q = fld.q
    add = [[fld.add(a, b) for b in range(q)] for a in range(q)]
    mul = [[fld.mul(a, b) for b in range(q)] for a in range(q)]
    words = rs_code(fld, k).words.tolist()
    for u, word in enumerate(words):
        coeffs = [(u // q**j) % q for j in range(k)]
        want = []
        for x in range(1, q):
            acc = 0
            for c in reversed(coeffs):
                acc = add[mul[acc][x]][c]
            want.append(acc)
        assert word == want


def test_rs_rejects_bad_dimension_and_budget():
    with pytest.raises(InputError):
        rs_code(Field(5, 1), 0)
    with pytest.raises(InputError):
        rs_code(Field(5, 1), 5)
    with pytest.raises(BudgetExceeded):
        rs_code(Field(5, 1), 3, max_size=100)


# -- BCH ----------------------------------------------------------------------------


def test_bch_hamming_parameters():
    code = bch_code(4, 3)
    assert code.n == 15
    assert gf2_rank_dense(code.check) == 4  # [15, 11]
    assert code.rank == 4


def test_bch_63_51_rank():
    code = bch_code(6, 5)
    assert code.n == 63
    assert gf2_rank_dense(code.check) == 12  # [63, 51]


def test_bch_degenerate_delta():
    code = bch_code(4, 2)
    assert code.check.shape == (4, 15)
    assert code.rank == 4


def test_bch_rejects_bad_parameters():
    with pytest.raises(InputError):
        bch_code(1, 2)
    with pytest.raises(InputError):
        bch_code(4, 1)
    with pytest.raises(InputError):
        bch_code(4, 16)


# -- fixed-weight subcodes -------------------------------------------------------------


def test_fixed_weight_subcode_fano_from_hamming():
    code = bch_code(3, 3)  # [7, 4]
    sub = fixed_weight_subcode(code, 3)
    assert sub.num_columns == 7 and sub.warning is None
    assert set(sub.columns) == dense_syndrome_supports(code.check, 3)


def test_fixed_weight_subcode_15_11():
    code = bch_code(4, 3)
    sub = fixed_weight_subcode(code, 3)
    assert sub.num_columns == 35
    # spot-check by re-enumeration: exactly the zero-syndrome supports, no others
    assert set(sub.columns) == dense_syndrome_supports(code.check, 3)
    assert list(sub.columns) == sorted(sub.columns)  # lexicographic column order


def test_fixed_weight_subcode_empty():
    sub = fixed_weight_subcode(bch_code(6, 5), 3)  # minimum distance 5: no weight-3 words
    assert sub.num_columns == 0
    assert sub.warning is not None


def test_fixed_weight_subcode_budget():
    with pytest.raises(BudgetExceeded):
        fixed_weight_subcode(bch_code(6, 3), 5, max_enum=1000)


# -- Kautz-Singleton --------------------------------------------------------------------


def test_ks_rs52_parameters():
    matrix = kautz_singleton(rs_code(Field(5, 1), 2))
    assert (matrix.length, matrix.num_columns, matrix.weight) == (20, 25, 4)
    assert matrix.min_distance() == 6


def test_ks_rs83_parameters():
    matrix = kautz_singleton(rs_code(Field(2, 3), 3))
    assert (matrix.length, matrix.num_columns) == (56, 512)
    assert matrix.weight == 7


def test_ks_single_codeword():
    code = QaryCode(Field(3, 1), 2, np.array([[1, 2]]))
    matrix = kautz_singleton(code)
    assert matrix.num_columns == 1
    assert matrix.columns[0] == (1, 3 + 2)


@pytest.mark.parametrize("q,k", [(4, 2), (5, 2), (7, 2)])
def test_ks_doubles_every_pairwise_distance(q, k):
    from disjunct.galois import prime_power

    code = rs_code(Field(*prime_power(q)), k)
    matrix = kautz_singleton(code)
    assert matrix.num_columns == code.size <= 1000
    packed = matrix.packed
    for a, b in itertools.combinations(range(code.size), 2):
        dq = int((code.words[a] != code.words[b]).sum())
        inter = int(np.bitwise_count(packed[a] & packed[b]).sum())
        assert 2 * (matrix.weight - inter) == 2 * dq


def test_ks_one_indicator_per_block():
    matrix = kautz_singleton(rs_code(Field(5, 1), 2))
    q = 5
    for supp in matrix.columns:
        blocks = [i // q for i in supp]
        assert blocks == list(range(matrix.weight))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 200).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.frozensets(st.integers(0, m - 1), max_size=12), unique=True, max_size=20),
        )
    )
)
def test_packed_bits_match_supports(data):
    # ragged supports, so rows drop out of the position loop at different steps
    m, supports = data
    cols = tuple(tuple(sorted(s)) for s in supports)
    packed = BinaryMatrix(length=m, columns=cols).packed
    assert packed.shape == (len(cols), max(1, -(-m // 64)))
    for j, supp in enumerate(cols):
        assert {i for i in range(m) if (int(packed[j, i >> 6]) >> (i & 63)) & 1} == set(supp)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.booleans(), min_size=0, max_size=150), min_size=1, max_size=4))
def test_pack_bits_matches_per_bit_reference(rows):
    width = min(map(len, rows))
    bits = np.array([r[:width] for r in rows], dtype=bool).reshape(len(rows), width)
    words = pack_bits(bits)
    assert words.shape == (len(rows), max(1, -(-width // 64)))
    for r in range(len(rows)):
        want = sum(1 << i for i in range(width) if bits[r, i])
        got = sum(int(v) << (64 * k) for k, v in enumerate(words[r]))
        assert got == want


# -- designs -------------------------------------------------------------------------


def test_load_design_fano():
    design = load_design(FANO_BLOCKS)
    assert (design.length, design.num_columns, design.weight) == (7, 7, 3)


def test_load_design_empty_and_disjoint():
    empty = load_design([])
    assert empty.num_columns == 0
    pair = load_design([(0, 1), (2, 3)], length=4)
    assert (pair.length, pair.num_columns, pair.weight) == (4, 2, 2)
    assert set(pair.columns[0]).isdisjoint(pair.columns[1])


def test_load_design_rejects_bad_blocks():
    with pytest.raises(InputError):
        load_design([(0, 1), (2,)])  # ragged
    with pytest.raises(InputError):
        load_design([(0, 5)], length=4)  # out of range
    with pytest.raises(InputError):
        load_design([(0, 1), (1, 0)])  # duplicate block
    with pytest.raises(InputError):
        load_design([(1, 1)])  # repeated point


# -- file formats -----------------------------------------------------------------------


def test_matrix_roundtrip_and_digest(tmp_path, ks52):
    path = tmp_path / "m.txt"
    digest = write_matrix(path, ks52)
    again = read_matrix(path)
    assert again.columns == ks52.columns
    assert again.length == ks52.length and again.weight == ks52.weight
    assert digest == matrix_digest(ks52) == again.digest
    assert write_matrix(tmp_path / "m2.txt", ks52) == digest  # byte-stable


def test_code_file_roundtrip(tmp_path):
    code = rs_code(Field(2, 3), 2)
    path = tmp_path / "c.txt"
    write_code(path, code)
    again = read_code(path)
    assert again.field == code.field
    assert np.array_equal(again.words, code.words)


def test_design_file_with_and_without_header(tmp_path, fano_matrix):
    with_header = tmp_path / "fano.blocks"
    write_matrix(with_header, fano_matrix)
    assert read_design(with_header).columns == fano_matrix.columns
    bare = tmp_path / "bare.blocks"
    bare.write_text("".join(" ".join(map(str, b)) + "\n" for b in FANO_BLOCKS))
    design = read_design(bare)
    assert design.columns == fano_matrix.columns and design.length == 7


def test_read_matrix_rejects_corrupt_files(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2 1\n0\n")  # header claims two columns
    with pytest.raises(InputError):
        read_matrix(bad)
    worse = tmp_path / "worse.txt"
    worse.write_text("not a header\n")
    with pytest.raises(InputError):
        read_matrix(worse)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.sets(
                st.frozensets(st.integers(0, m - 1), min_size=2, max_size=2),
                min_size=1,
                max_size=6,
            ),
        )
    )
)
def test_matrix_file_roundtrip_random(tmp_path_factory, data):
    m, supports = data
    code = ConstantWeightCode(
        length=m, columns=tuple(sorted(tuple(sorted(s)) for s in supports)), weight=2
    )
    path = tmp_path_factory.mktemp("rt") / "m.txt"
    write_matrix(path, code)
    again = read_matrix(path)
    assert again.columns == code.columns and again.digest == matrix_digest(code)


# -- validation of core types ------------------------------------------------------------


def test_qary_code_rejects_duplicates_and_range():
    fld = Field(3, 1)
    with pytest.raises(InputError):
        QaryCode(fld, 2, np.array([[0, 1], [0, 1]]))
    with pytest.raises(InputError):
        QaryCode(fld, 2, np.array([[0, 3]]))


def test_constant_weight_validation():
    with pytest.raises(InputError):
        ConstantWeightCode(length=4, columns=((0, 1), (0,)), weight=2)
    with pytest.raises(InputError):
        ConstantWeightCode(length=4, columns=((0, 4),), weight=2)
    with pytest.raises(InputError):
        ConstantWeightCode(length=4, columns=((1, 0),), weight=2)  # unsorted
