import functools
import itertools
from fractions import Fraction
from math import comb, inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    design_strength,
    mds_weight_distribution,
    pair_counts_by_loop,
    pless_power_moment,
    qary_dual_weight_distribution,
    stirling2,
    symbols_swapped_rs82,
)
from disjunct import codes
from disjunct.codes import QaryCode, bch_code, fixed_weight_subcode, kautz_singleton, load_design, rs_code
from disjunct.errors import BudgetExceeded, InputError
from disjunct.galois import Field, prime_power
from disjunct.instances import fano, ks_rs
from disjunct.spectra import (
    binomial_central_moment,
    central_moment_hamming,
    cw_central_moment,
    cw_spectrum,
    dual_spectrum_cw,
    dual_spectrum_hamming,
    eberlein,
    hahn,
    hamming_spectrum,
    hypergeometric_central_moment,
    johnson_multiplicity,
    johnson_valency,
    krawtchouk,
    moment_checks,
    spectrum_report,
)


# -- pair counting -----------------------------------------------------------------


def test_repetition_code_spectrum():
    code = QaryCode(Field(2, 1), 2, np.array([[0, 0], [1, 1]]))
    spec = hamming_spectrum(code)
    assert spec.counts == (2, 0, 2)
    assert spec.distribution == (1, 0, 1)


def test_single_codeword_spectrum():
    code = QaryCode(Field(2, 1), 2, np.array([[0, 1]]))
    spec = hamming_spectrum(code)
    assert spec.counts == (1, 0, 0)


def test_rs52_spectrum_brute_force_and_mds_oracle():
    code = rs_code(Field(5, 1), 2)
    spec = hamming_spectrum(code)
    # independent recount over all 625 ordered pairs
    counts = [0] * 5
    for a in range(25):
        for b in range(25):
            counts[int((code.words[a] != code.words[b]).sum())] += 1
    assert spec.counts == tuple(counts) == (25, 0, 0, 400, 200)
    assert list(spec.distribution) == mds_weight_distribution(5, 4, 2)
    assert next(i for i, c in enumerate(spec.counts) if i and c) == 3  # minimum distance


def test_spectrum_budget_and_sampling_mode(monkeypatch):
    code = rs_code(Field(5, 1), 2)
    full = hamming_spectrum(code)
    assert spectrum_report(full)["exact"] is True
    monkeypatch.setenv("DISJUNCT_MAX_OPS", "1")
    assert hamming_spectrum(code) == full  # a linear code
    not_linear = QaryCode(code.field, code.n, code.words[1:])  # N=24
    with pytest.raises(BudgetExceeded, match=r"budget 1 \(DISJUNCT_MAX_OPS\)$"):  # no sampling fallback to name
        hamming_spectrum(not_linear)


def _generated(fld: Field, generator: list[list[int]]) -> QaryCode:
    """The code spanned by the generator rows, one word per message in lexicographic order."""
    rows = np.array(generator)
    words = [
        functools.reduce(fld.add, (fld.mul(u, row) for u, row in zip(msg, rows)))
        for msg in itertools.product(range(fld.q), repeat=len(rows))
    ]
    return QaryCode(fld, rows.shape[1], np.array(words))


LINEAR_CODES = {
    **{f"rs-{q}-{k}": functools.partial(lambda q, k: rs_code(Field(*prime_power(q)), k), q, k)
       for q, k in [(4, 2), (4, 3), (5, 2), (5, 3), (7, 2), (8, 2), (9, 2), (16, 2)]},
    # columns 0 and 4 are equal, so a word vanishing on column 0 has weight <= 3 < n - k + 1
    "gf4-5-2-not-mds": lambda: _generated(Field(2, 2), [[1, 0, 1, 1, 1], [0, 1, 2, 3, 0]]),
    "binary-repetition": lambda: QaryCode(Field(2, 1), 3, np.array([[0, 0, 0], [1, 1, 1]])),
    "zero-word": lambda: QaryCode(Field(3, 1), 4, np.zeros((1, 4), dtype=int)),
}


def _random_code() -> QaryCode:
    """25 distinct random words of length 4 over GF(5): q^k words, but not a subspace."""
    index = np.random.default_rng(5).choice(5**4, size=25, replace=False)
    return QaryCode(Field(5, 1), 4, index[:, None] // 5 ** np.arange(4) % 5)


NOT_LINEAR_CODES = {
    "rs-5-2-minus-one-word": lambda: QaryCode(Field(5, 1), 4, rs_code(Field(5, 1), 2).words[1:]),
    "rs-8-2-symbols-swapped": symbols_swapped_rs82,
    "random-gf5": _random_code,
}


@pytest.mark.parametrize("sample", [codes.SPAN_SAMPLE, 1])  # 1: the basis grows word by word
@pytest.mark.parametrize("name", list(LINEAR_CODES))
def test_linear_code_spectra_take_the_weight_route(monkeypatch, name, sample):
    monkeypatch.setattr(codes, "SPAN_SAMPLE", sample)
    code = LINEAR_CODES[name]()
    weights = codes.linear_weights(code.field, code.words)
    assert weights is not None
    monkeypatch.setenv("DISJUNCT_MAX_OPS", "0")  # the pair loop would refuse any N
    spec = hamming_spectrum(code)
    assert spec.counts == tuple(code.size * weights) == pair_counts_by_loop(code.words, code.n)
    # the Hamming distance of two words is w minus the overlap of their KS columns
    assert cw_spectrum(kautz_singleton(code)).counts == spec.counts
    if name == "gf4-5-2-not-mds":
        assert list(spec.distribution) != mds_weight_distribution(4, 5, 2)
    elif name.startswith("rs-"):
        q, k = map(int, name.split("-")[1:])
        assert list(spec.distribution) == mds_weight_distribution(q, code.n, k)


@pytest.mark.parametrize("sample", [codes.SPAN_SAMPLE, 1])
@pytest.mark.parametrize("name", list(NOT_LINEAR_CODES))
def test_nonlinear_code_spectra_count_pairs(monkeypatch, name, sample):
    monkeypatch.setattr(codes, "SPAN_SAMPLE", sample)
    code = NOT_LINEAR_CODES[name]()
    assert codes.linear_weights(code.field, code.words) is None
    spec = hamming_spectrum(code)
    assert spec.counts == pair_counts_by_loop(code.words, code.n)
    assert spec.counts == cw_spectrum(kautz_singleton(code)).counts
    assert np.count_nonzero(spec.counts) >= 3
    monkeypatch.setenv("DISJUNCT_MAX_OPS", str(code.size**2 - 1))
    with pytest.raises(BudgetExceeded, match=rf"^pair count over {code.size}\^2 word pairs: {code.size**2} operations"):
        hamming_spectrum(code)


def test_fano_cw_spectrum_brute_force(fano_matrix):
    spec = cw_spectrum(fano_matrix)
    counts = [0] * 4
    cols = [set(c) for c in fano_matrix.columns]
    for a in cols:
        for b in cols:
            counts[3 - len(a & b)] += 1
    assert spec.counts == tuple(counts) == (7, 0, 42, 0)
    assert spec.distribution == (1, 0, 6, 0)


@pytest.mark.parametrize("q,k", [(4, 2), (5, 2), (8, 3), (9, 3), (16, 3)])
def test_ks_spectrum_is_the_mds_weight_distribution(q, k):
    # column pairs at i = w - |intersection| are codeword pairs at Hamming distance i
    matrix = ks_rs(q, k)
    counts = [matrix.num_columns * a for a in mds_weight_distribution(q, q - 1, k)]
    assert cw_spectrum(matrix).counts == tuple(counts)
    assert matrix.min_distance() == 2 * (q - k)  # twice the code's n - k + 1


def test_cw_spectrum_budget_guards_only_the_pair_count(monkeypatch, ks83):
    full = cw_spectrum(ks83)
    monkeypatch.setenv("DISJUNCT_MAX_OPS", "48")
    assert cw_spectrum(ks83) == full  # a KS image of a linear code
    with pytest.raises(BudgetExceeded, match=r"^pair count over 7\^2 column pairs: 49 operations exceed budget 48"):
        cw_spectrum(fano())  # a fresh matrix: a counted one keeps its profiles


def test_cw_spectrum_degenerate_cases():
    single = load_design([(0, 1, 2)])
    assert cw_spectrum(single).counts == (1, 0, 0, 0)
    pair = load_design([(0, 1), (2, 3)], length=4)
    assert cw_spectrum(pair).counts == (2, 0, 2)


# -- Krawtchouk ---------------------------------------------------------------------


def test_krawtchouk_examples():
    assert all(krawtchouk(2, 4, 0, i) == 1 for i in range(5))
    assert [krawtchouk(2, 4, 1, i) for i in range(5)] == [4, 2, 0, -2, -4]
    assert krawtchouk(3, 4, 1, 0) == 8
    assert krawtchouk(3, 4, 1, 1) == 5


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 16), st.data())
def test_krawtchouk_linear_identity(q, n, data):
    i = data.draw(st.integers(0, n))
    assert krawtchouk(q, n, 1, i) == (n - i) * (q - 1) - i


def test_krawtchouk_range_check():
    with pytest.raises(InputError):
        krawtchouk(2, 4, 5, 0)


# -- dual transforms -----------------------------------------------------------------


def test_dual_spectrum_repetition_self_dual():
    code = QaryCode(Field(2, 1), 2, np.array([[0, 0], [1, 1]]))
    dual = dual_spectrum_hamming(hamming_spectrum(code))
    assert dual.values == (1, 0, 1)
    assert dual.dual_distance == 2


def test_dual_spectrum_full_space():
    code = QaryCode(Field(2, 1), 2, np.array([[0, 0], [0, 1], [1, 0], [1, 1]]))
    dual = dual_spectrum_hamming(hamming_spectrum(code))
    assert dual.values == (1, 0, 0)
    assert dual.dual_distance == inf


@pytest.mark.parametrize("q,k", [(5, 2), (7, 3), (8, 3), (9, 2)])
def test_macwilliams_oracle_rs(q, k):
    """Transform of the primal distance distribution == dual code weight distribution."""
    fld = Field(*prime_power(q))
    code = rs_code(fld, k)
    dual = dual_spectrum_hamming(hamming_spectrum(code))
    assert dual.dual_distance == k + 1  # MDS dual is MDS
    expected = qary_dual_weight_distribution(fld, k)
    assert [Fraction(x) for x in expected] == list(dual.values)


# -- Johnson scheme polynomials ---------------------------------------------------------


def test_eberlein_examples():
    assert eberlein(7, 3, 1, 1) == 5
    for k in range(4):
        assert eberlein(7, 3, k, 0) == johnson_valency(7, 3, k)
    assert all(eberlein(10, 4, 0, i) == 1 for i in range(5))


def test_eberlein_valency_identity_wide():
    for m_len in range(2, 25):
        for w in range(1, min(12, m_len // 2) + 1):
            for k in range(w + 1):
                assert eberlein(m_len, w, k, 0) == johnson_valency(m_len, w, k)


def test_hahn_examples():
    assert all(hahn(9, 4, 0, i) == 1 for i in range(5))
    assert hahn(7, 3, 1, 0) == 6
    assert hahn(7, 3, 1, 2) == -1
    assert johnson_multiplicity(7, 1) == 6 and johnson_multiplicity(7, 3) == 14


def test_hahn_linear_closed_form():
    for m_len, w in [(7, 3), (10, 5), (13, 4), (24, 12)]:
        for i in range(w + 1):
            closed = (m_len - 1) * (1 - Fraction(m_len * i, w * (m_len - w)))
            assert hahn(m_len, w, 1, i) == closed


def test_fano_dual_spectrum(fano_matrix):
    dual = dual_spectrum_cw(cw_spectrum(fano_matrix))
    assert dual.values == (1, 0, 0, 4)
    assert dual.dual_distance == 3  # strength-2 design, not strength 3


def test_design_strength(fano_matrix):
    assert design_strength(cw_spectrum(fano_matrix)) == 2
    single = load_design([(0, 1, 2)], length=6)
    assert design_strength(cw_spectrum(single)) == 0


def test_disjoint_pair_dual_distance_depends_on_padding():
    # on 5 points the two blocks miss a point: not even a 1-design
    pair5 = load_design([(0, 1), (2, 3)], length=5)
    assert dual_spectrum_cw(cw_spectrum(pair5)).dual_distance == 1
    # on 4 points they partition the ground set: a 1-design of strength exactly 1
    pair4 = load_design([(0, 1), (2, 3)], length=4)
    assert dual_spectrum_cw(cw_spectrum(pair4)).dual_distance == 2


def test_single_column_dual_nonnegative():
    single = load_design([(0, 1, 2)], length=7)
    dual = dual_spectrum_cw(cw_spectrum(single))
    assert dual.values[0] == 1
    assert all(v >= 0 for v in dual.values)


def test_delsarte_nonnegativity_on_constructions(fano_matrix, ks52, ks83):
    codes = {
        "fano": fano_matrix,
        "ks52": ks52,
        "ks83": ks83,
        "bch633": fixed_weight_subcode(bch_code(6, 3), 3),
    }
    for name, code in codes.items():
        dual = dual_spectrum_cw(cw_spectrum(code))
        assert all(v >= 0 for v in dual.values), name


# -- Stirling and power moments -----------------------------------------------------------


def test_stirling_examples():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert all(stirling2(r, 1) == 1 for r in range(1, 8))
    assert stirling2(2, 5) == 0
    assert stirling2(0, 0) == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12))
def test_stirling_recurrence(r, v):
    assert stirling2(r, v) == v * stirling2(r - 1, v) + stirling2(r - 1, v - 1)


def test_pless_power_moment_examples():
    spec = hamming_spectrum(rs_code(Field(5, 1), 2))
    assert pless_power_moment(spec, 0) == (spec.size, spec.size)
    for r in (1, 2):
        lhs, rhs = pless_power_moment(spec, r)
        assert lhs == rhs, (r, lhs, rhs)


@pytest.mark.parametrize("q,k", [(5, 2), (7, 2), (7, 3), (8, 3), (9, 2), (9, 3)])
def test_central_moment_equals_binomial_below_dual_distance(q, k):
    code = rs_code(Field(*prime_power(q)), k)
    spec = hamming_spectrum(code)
    for ell in range(k + 1):
        assert central_moment_hamming(spec, ell) == binomial_central_moment(
            code.n, q, ell
        ), (q, k, ell)


def test_central_moment_examples():
    spec = hamming_spectrum(rs_code(Field(5, 1), 2))
    assert central_moment_hamming(spec, 0) == 1
    assert central_moment_hamming(spec, 1) == 0
    assert central_moment_hamming(spec, 2) == Fraction(16, 25)
    assert binomial_central_moment(4, 5, 2) == Fraction(16, 25)  # n * theta * (1 - theta)


# -- hypergeometric and constant-weight moments ---------------------------------------------


def test_hypergeometric_moment_examples():
    assert hypergeometric_central_moment(7, 3, 1) == 0
    assert hypergeometric_central_moment(7, 3, 2) == Fraction(24, 49)
    # independent oracle through raw moments: E(X-EX)^3 = EX^3 - 3 EX^2 EX + 2 (EX)^3
    def raw(r):
        return sum(
            Fraction(comb(3, i) * comb(4, 3 - i), comb(7, 3)) * i**r for i in range(4)
        )

    mean = raw(1)
    third = raw(3) - 3 * raw(2) * mean + 2 * mean**3
    assert hypergeometric_central_moment(7, 3, 3) == third


def test_cw_moments_match_hypergeometric_below_dual_distance(fano_matrix):
    spec = cw_spectrum(fano_matrix)
    assert cw_central_moment(spec, 0) == 1
    assert cw_central_moment(spec, 1) == 0 == hypergeometric_central_moment(7, 3, 1)
    assert cw_central_moment(spec, 2) == Fraction(24, 49) == hypergeometric_central_moment(7, 3, 2)


def test_sidelnikov_inequality_r_up_to_8(fano_matrix, ks52, ks83):
    cases = {
        "fano": fano_matrix,
        "ks52": ks52,
        "ks83": ks83,
        "bch633": fixed_weight_subcode(bch_code(6, 3), 3),
        "bch655": fixed_weight_subcode(bch_code(6, 5), 5),
    }
    for name, code in cases.items():
        spec = cw_spectrum(code)
        d = dual_spectrum_cw(spec).dual_distance
        for r in range(9):
            lhs = cw_central_moment(spec, r)
            rhs = hypergeometric_central_moment(code.length, code.weight, r)
            assert lhs >= rhs, (name, r)
            if r < d:
                assert lhs == rhs, (name, r)


def test_mean_and_variance_for_strength_two_designs(fano_matrix):
    designs = {
        "fano": fano_matrix,
        "bch633": fixed_weight_subcode(bch_code(6, 3), 3),
    }
    for name, code in designs.items():
        spec = cw_spectrum(code)
        assert dual_spectrum_cw(spec).dual_distance >= 3, name
        m_len, w = code.length, code.weight
        theta = Fraction(w * (m_len - w), m_len)
        mean = sum(Fraction(c * i, spec.size**2) for i, c in enumerate(spec.counts))
        assert mean == theta, name
        var = cw_central_moment(spec, 2)
        assert var == theta**2 / (m_len - 1), name


@pytest.mark.parametrize(
    "spec,dual,odd",
    [
        # the complete 3-(8,3,1) design: intersection moments in J(8,3), skewed up
        (cw_spectrum(load_design(itertools.combinations(range(8), 3))), dual_spectrum_cw,
         {3: Fraction(75, 1792), 5: Fraction(13155, 57344)}),
        # all of GF(3)^4: distance moments in H(4,3), skewed down
        (hamming_spectrum(QaryCode(Field(3, 1), 4, np.array(list(itertools.product(range(3), repeat=4))))),
         dual_spectrum_hamming, {3: Fraction(-8, 27), 5: Fraction(-520, 243)}),
    ],
    ids=["design-8-3", "gf3-4"],
)
def test_moment_checks_fix_odd_signs_at_infinite_dual_distance(spec, dual, odd):
    assert dual(spec).dual_distance == inf
    checks = moment_checks(spec)
    assert [c.r for c in checks] == list(range(9)) and all(c.equal for c in checks)
    assert {r: checks[r].lhs for r in odd} == odd


# -- report ------------------------------------------------------------------------------


def test_spectrum_report_shapes(fano_matrix):
    rep = spectrum_report(cw_spectrum(fano_matrix))
    assert rep["dual_distance"] == 3
    assert rep["counts"] == [7, 0, 42, 0]
    assert rep["distribution"][2] == "6/1"
    assert all(chk["equal"] for chk in rep["moment_checks"] if chk["below_dual_distance"])
    code_rep = spectrum_report(hamming_spectrum(rs_code(Field(5, 1), 2)))
    assert code_rep["dual_distance"] == 3
    assert code_rep["kind"] == "hamming"
