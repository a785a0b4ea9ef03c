import functools
import hashlib
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path
from unittest import mock
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _colex_subsets,
    bch_check_by_int64,
    brute_force_min_distance,
    colex_subsets,
    cw_counts_by_broadcast,
    dense_syndrome_supports,
    fixed_weight_supports_by_lex,
    index_chunks,
    gf2_rank_dense,
    matrix_bytes_by_digits,
    matrix_text_by_join,
    mds_weight_distribution,
    min_distance_by_columns,
    packed_by_rows,
    pair_counts_by_loop,
    profiles_by_columns,
    read_code_by_loadtxt,
    read_design_by_loadtxt,
    read_matrix_by_loadtxt,
    rs_words_by_tables,
    supports_valid,
    symbols_swapped_rs82,
    write_code,
)
import disjunct
from disjunct import codes, errors, textio
from disjunct.codes import (
    ConstantWeightCode,
    ParityCheckCode,
    QaryCode,
    bch_code,
    colex_chunks,
    fixed_weight_subcode,
    intersection_counts,
    kautz_singleton,
    load_design,
    pack_bits,
    rs_code,
)
from disjunct.textio import matrix_bytes, matrix_digest, read_code, read_design, read_matrix, write_matrix
from disjunct.errors import MAX_OPS, BudgetExceeded, InputError
from disjunct.galois import Field
from disjunct.instances import FANO_BLOCKS, fano, ks_rs, path
from disjunct.spectra import hamming_spectrum


# -- Reed-Solomon -----------------------------------------------------------------


def test_rs_repetition_case():
    code = rs_code(Field(5, 1), 1)
    assert code.size == 5 and code.n == 4
    assert all(len(set(map(int, row))) == 1 for row in code.words)
    assert brute_force_min_distance(code.words) == 4


def test_rs_repetition_code_past_one_pass():
    # q * n = 2048 * 2047 symbols pass 2^20, so the u_0 digits are filled in several passes
    words = rs_code(Field(2, 11), 1).words
    assert np.array_equal(words, np.repeat(np.arange(2048, dtype=np.int32)[:, None], 2047, axis=1))


def test_rs_52_parameters():
    code = rs_code(Field(5, 1), 2)
    assert code.size == 25 and brute_force_min_distance(code.words) == 3


def test_rs_83_exhaustive_distance():
    code = rs_code(Field(2, 3), 3)
    assert code.size == 512
    assert brute_force_min_distance(code.words) == 5


@pytest.mark.parametrize("q,k", [(4, 2), (5, 2), (5, 3), (7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 3)])
def test_rs_is_mds(q, k):
    from disjunct.galois import prime_power

    code = rs_code(Field(*prime_power(q)), k)
    counts = hamming_spectrum(code).counts
    assert next(i for i, c in enumerate(counts) if i and c) == code.n - k + 1  # minimum distance


@pytest.mark.parametrize(
    "p,m,k", [(3, 2, 3), (5, 2, 2), (3, 3, 2), (7, 2, 2), (2, 3, 3), (2, 4, 2), (2, 4, 1), (5, 1, 1), (2, 8, 2)]
)
def test_rs_matches_scalar_horner(p, m, k):
    """Odd-characteristic extension fields, where array addition is digit-wise, fields of
    characteristic 2, k = 1, and 64 seed-chosen words of RS(256, 2); every word of the others."""
    fld = Field(p, m)
    q = fld.q
    add, mul = functools.cache(fld.add), functools.cache(fld.mul)  # scalar steps, each done once
    words = rs_code(fld, k).words
    picks = range(len(words)) if q < 256 else np.random.default_rng(2015).integers(len(words), size=64)
    for u in map(int, picks):
        coeffs = [(u // q**j) % q for j in range(k)]
        want = []
        for x in range(1, q):
            acc = 0
            for c in reversed(coeffs):
                acc = add(mul(acc, x), c)
            want.append(acc)
        assert words[u].tolist() == want


# The edges of the narrow words: RS(256, 2) holds the uint8 top symbol 255, RS(257, 2) is the
# first code in uint16, and words of RS(65536, 1) cut to 3 points hold the uint16 top symbol
# 65535.  The KS digests were taken when the words were int32.
CUT_WORDS = np.repeat(np.array([0, 1, 2, 65534, 65535])[:, None], 3, axis=1)  # RS(65536, 1) word u is u everywhere
NARROW_EDGES = {
    "rs-256-2": (lambda: rs_code(Field(2, 8), 2), np.uint8,
                 "8b5a0f1263974b002f5dbd15c3ee1f974f66f540f91217be79cf36dfa4c8c608"),
    "rs-257-2": (lambda: rs_code(Field(257, 1), 2), np.uint16,
                 "a9b9a0a6bd96638b47a59dabff93db064d64635ed129e0546a42bfa7ea444a8a"),
    "rs-65536-1-cut": (lambda: QaryCode(Field(2, 16), 3, CUT_WORDS), np.uint16,
                       "9aa260ab7b3daadcb9eccb90b55fe335eb5ced1944167044427a53cfb7dde8fb"),
}


@pytest.fixture(scope="module", params=list(NARROW_EDGES))
def narrow_edge(request):
    build, dtype, digest = NARROW_EDGES[request.param]
    return build(), dtype, digest


def test_narrow_words_match_oracle_and_ks_digest(narrow_edge):
    code, dtype, digest = narrow_edge
    fld, words = code.field, code.words
    assert words.dtype == dtype and int(words.max()) == fld.q - 1 and not words.flags.writeable
    if code.n == fld.q - 1:  # a whole RS code: every word, 4096 messages at a time
        k = round(np.log(code.size) / np.log(fld.q))
        for lo in range(0, code.size, 4096):
            messages = np.arange(lo, min(lo + 4096, code.size))
            assert np.array_equal(words[messages], rs_words_by_tables(fld, k, messages))
    else:
        assert np.array_equal(words, rs_words_by_tables(fld, 1, words[:, 0])[:, : code.n])
    assert matrix_digest(kautz_singleton(code)) == digest


def test_narrow_words_do_not_wrap(narrow_edge):
    code, _, _ = narrow_edge
    fld, words = code.field, code.words
    wide = words.astype(np.int64)
    counts, weights = hamming_spectrum(code).counts, codes.linear_weights(fld, wide)  # narrow, then wide
    if weights is None:  # the cut words: not a linear code, so every pair is counted
        assert codes.linear_weights(fld, words) is None and counts == pair_counts_by_loop(wide, code.n)
    else:
        k = round(np.log(code.size) / np.log(fld.q))
        assert counts == tuple(code.size * weights) and weights.tolist() == mds_weight_distribution(fld.q, code.n, k)
    a, b = words[(words == fld.q - 1).any(axis=1).argmax()], words[1][::-1]  # a word holding the top symbol
    nonzero = b + (b == 0)
    for op, x, y in [(fld.add, a, b), (fld.sub, a, b), (fld.mul, a, b), (fld.div, a, nonzero), (fld.pow, a, b)]:
        got = op(x, y)
        assert got.dtype == np.int64 and np.array_equal(got, op(x.astype(np.int64), y.astype(np.int64)))
    assert np.array_equal(fld.neg(a), fld.neg(a.astype(np.int64))) and fld.neg(a).dtype == np.int64
    assert np.array_equal(fld.inv(nonzero), fld.inv(nonzero.astype(np.int64)))


def test_rs_256_words_raise_peak_memory_little():
    # RS(256, 2) is 65536 words of 255 uint8 symbols, 15.9 MiB; as int32 words built through
    # int64 temporaries it raised ru_maxrss by 72.9 MiB
    before, after = _maxrss_mib("from disjunct.codes import rs_code", "from disjunct.galois import Field",
                                "fld = Field(2, 8)", "fld.generator", "rss()", "rs_code(fld, 2)", "rss()")
    assert after - before <= 24


def test_rs_rejects_bad_dimension_and_budget(monkeypatch):
    with pytest.raises(InputError):
        rs_code(Field(5, 1), 0)
    with pytest.raises(InputError):
        rs_code(Field(5, 1), 5)
    monkeypatch.setenv("DISJUNCT_MAX_OPS", "500")
    assert rs_code(Field(5, 1), 3).size == 125  # N*n = 125 * 4 symbols
    monkeypatch.setenv("DISJUNCT_MAX_OPS", "499")
    with pytest.raises(BudgetExceeded, match=r"^RS\(5,3\) enumeration of N\*n = 5\^3\*4 symbols: 500 operations"):
        rs_code(Field(5, 1), 3)


# -- BCH ----------------------------------------------------------------------------


def test_bch_hamming_parameters():
    code = bch_code(4, 3)
    assert code.n == 15
    assert gf2_rank_dense(code.check) == 4  # [15, 11]


def test_bch_63_51_rank():
    code = bch_code(6, 5)
    assert code.n == 63
    assert gf2_rank_dense(code.check) == 12  # [63, 51]


def test_bch_degenerate_delta():
    code = bch_code(4, 2)
    assert code.check.shape == (4, 15)
    assert gf2_rank_dense(code.check) == 4


def test_bch_rejects_bad_parameters():
    with pytest.raises(InputError):
        bch_code(1, 2)
    with pytest.raises(InputError):
        bch_code(4, 1)
    with pytest.raises(InputError):
        bch_code(4, 16)


def test_bch_check_rows_charged_before_they_are_built(monkeypatch):
    # (delta - 1) * m * n = 8 * 5 * 31 check entries: one fewer in the budget refuses them
    entries = 8 * 5 * 31
    monkeypatch.setenv("DISJUNCT_MAX_OPS", str(entries - 1))
    with pytest.raises(BudgetExceeded, match=rf"^BCH\(31,9\) check rows of 8\*5\*31 entries: {entries} operations"):
        bch_code(5, 9)
    monkeypatch.setenv("DISJUNCT_MAX_OPS", str(entries))
    assert bch_code(5, 9).check.shape == (8 * 5, 31)


@pytest.mark.parametrize("m", range(2, 8))
def test_bch_check_rows_match_the_int64_formula(m):
    # the uint8 bit planes against every row block built at once as int64, at every delta
    for delta in range(2, 2**m):
        check = bch_code(m, delta).check
        assert check.dtype == np.uint8 and not check.flags.writeable
        assert np.array_equal(check, bch_check_by_int64(m, delta))


def test_bch_check_rows_over_several_passes(monkeypatch):
    # 100 powers a pass: a few row blocks a pass at n = 7..63, one at n = 127
    monkeypatch.setattr(codes, "CHECK_POWERS", 100)
    for m, deltas in [(3, range(2, 8)), (5, range(2, 32)), (6, range(2, 64, 5)), (7, (2, 9, 64, 127))]:
        for delta in deltas:
            assert np.array_equal(bch_code(m, delta).check, bch_check_by_int64(m, delta))


def test_parity_check_code_keeps_only_a_read_only_bit_array():
    bits = bch_code(4, 5).check
    assert ParityCheckCode(15, bits).check is bits  # read-only 0/1 uint8: kept, not copied
    for given in (bits.copy(), bits.astype(np.int64), 3 * bits, np.asfortranarray(bits)):
        kept = ParityCheckCode(15, given).check
        assert kept is not given and np.array_equal(kept, bits) and not kept.flags.writeable
    assert ParityCheckCode(15, given).check.flags.c_contiguous and given.flags.writeable


def _maxrss_mib(*lines: str) -> list[float]:
    """Run the lines in a fresh interpreter on this checkout; `rss()` prints the peak resident size
    so far, in MiB.  That is VmHWM, the peak of the child's own image: Linux carries the parent's
    peak across exec into ru_maxrss, so a large test process would set the child's figure."""
    probe = ("def rss():\n    with open('/proc/self/status') as status:\n"
             "        print(next(int(ln.split()[1]) for ln in status if ln.startswith('VmHWM:')) / 1024)")
    src = str(Path(disjunct.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", "\n".join([probe, *lines])], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    return [float(v) for v in proc.stdout.split()]


def test_bch_check_rows_peak_memory():
    # the 939 * 13 rows of 8191 entries are 95.4 MiB of uint8; int64 powers of every row at once,
    # then a copy of the bits, peaked at 277 MiB
    (peak,) = _maxrss_mib("from disjunct.codes import bch_code", "bch_code(13, 940)", "rss()")
    assert peak <= 150


def test_read_matrix_peak_memory(tmp_path):
    # KS(16,4) is 65536 columns of 15 points, a 3.5 MB file and a 3.75 MiB (w, N) int32 array.  The
    # file read by pieces into that array, plus validation, raised the peak by 9.2 MiB; decoded
    # whole, split into lines and parsed by np.loadtxt, it raised it by 16.4 MiB
    path = tmp_path / "ks164.txt"
    write_matrix(path, ks_rs(16, 4))
    before, after = _maxrss_mib("from disjunct.codes import read_matrix", "rss()",
                                f"read_matrix({str(path)!r})", "rss()")
    assert after - before <= 12


def test_simulate_decoding_peak_memory():
    # KS(32,3) at t = 40: 8192 trials in chunks of 3264, 51 trial words.  The decoder holds the
    # (N, words) decoded columns (13 MiB), the union on its way to `pos` and a few column blocks,
    # and the matrix gains its packed form (4 MiB) and (w, N) int32 step array (3.9 MiB): 23.2 MiB
    # in all.  A second (N, words) scratch and the byte-plane count rose 38.1 MiB
    before, after = _maxrss_mib("from disjunct.instances import ks_rs", "from disjunct.measure import simulate_decoding",
                                "matrix = ks_rs(32, 3)", "rss()", "simulate_decoding(matrix, 40, 8192, 20177)", "rss()")
    assert after - before <= 30


# -- fixed-weight subcodes -------------------------------------------------------------


def test_fixed_weight_subcode_fano_from_hamming():
    code = bch_code(3, 3)  # [7, 4]
    sub = fixed_weight_subcode(code, 3)
    assert sub.num_columns == 7
    assert set(sub.columns) == dense_syndrome_supports(code.check, 3)


def test_fixed_weight_subcode_15_11():
    code = bch_code(4, 3)
    sub = fixed_weight_subcode(code, 3)
    assert sub.num_columns == 35
    # spot-check by re-enumeration: exactly the zero-syndrome supports, no others
    assert set(sub.columns) == dense_syndrome_supports(code.check, 3)
    assert list(sub.columns) == sorted(sub.columns)  # lexicographic column order


@pytest.mark.parametrize("m,delta,w", [(4, 5, 10), (5, 5, 5), (7, 3, 125), (5, 3, 28), (5, 3, 31)])
def test_fixed_weight_subcode_matches_lex_walk(m, delta, w):
    # the last three have w > n/2 and walk the (n - w)-point complements; (7, 3, 125) is
    # empty (the Hamming code has no weight-2 words), (5, 3, 31) is the all-ones word alone
    code = bch_code(m, delta)
    sub = fixed_weight_subcode(code, w)
    rows = sub.points.T
    assert np.array_equal(rows, fixed_weight_supports_by_lex(code, w))
    assert set(sub.columns) == dense_syndrome_supports(code.check, w)
    assert sub.num_columns == {10: 18, 5: 186, 125: 0, 28: 155, 31: 1}[w]


HAMMING_15 = bch_code(4, 3).check  # (8, 15) of rank 4, the [15, 11] Hamming code


@pytest.mark.parametrize(
    "check,low",
    [
        (np.hstack([HAMMING_15, HAMMING_15[:, [6]]]), [0, 1]),  # column 15 repeats column 6
        (np.hstack([HAMMING_15, np.zeros((8, 1), dtype=np.uint8)]), [1, 0]),  # column 15 is zero
        (np.vstack([np.zeros((64, 15), dtype=np.uint8), HAMMING_15]), [0, 0]),  # first word zero
    ],
    ids=["repeated-column", "zero-column", "two-words-first-zero"],
)
def test_fixed_weight_subcode_matches_oracles_on_every_weight(check, low):
    # a repeated column makes a weight-2 word and a zero column a weight-1 word; with the
    # first of two syndrome words zero, every column matches every lookup on that word
    code = codes.ParityCheckCode(check.shape[1], check)
    sizes = []
    for w in range(1, code.n + 1):
        sub = fixed_weight_subcode(code, w)
        rows = sub.points.T
        assert np.array_equal(rows, fixed_weight_supports_by_lex(code, w))
        assert set(sub.columns) == dense_syndrome_supports(code.check, w)
        sizes.append(sub.num_columns)
    assert sizes[:2] == low and sum(sizes) == 2 ** (code.n - 4) - 1  # every nonzero codeword


def test_fixed_weight_subcode_with_two_word_syndromes():
    code = bch_code(4, 3)
    tall = codes.ParityCheckCode(code.n, np.tile(code.check[:4], (17, 1)))  # alpha's 4 rows, 68 in all
    assert tall.column_syndromes.shape == (15, 2)
    sub = fixed_weight_subcode(tall, 3)
    assert sub.num_columns == 35 and sub.digest == fixed_weight_subcode(code, 3).digest


def test_fixed_weight_subcode_empty():
    sub = fixed_weight_subcode(bch_code(6, 5), 3)  # minimum distance 5: no weight-3 words
    assert sub.num_columns == 0


def test_fixed_weight_subcode_budget(monkeypatch):
    # the halves, C(63,2) + C(63,3) subsets, are refused before any is built, and then the pairs
    # matched on the first word so far (one per codeword: a syndrome of one word), 5 points each,
    # before any pair is built
    halves, pairs = comb(63, 2) + comb(63, 3), 109368
    what = r"^weight-5 meet of C\(63,2\) \+ C\(63,3\) subsets"
    monkeypatch.setenv("DISJUNCT_MAX_OPS", str(halves - 1))
    with pytest.raises(BudgetExceeded, match=rf"{what}: {halves} operations"):
        fixed_weight_subcode(bch_code(6, 3), 5)
    monkeypatch.setenv("DISJUNCT_MAX_OPS", str(halves + 5 * pairs - 1))
    with pytest.raises(BudgetExceeded, match=rf"{what} and {pairs} pairs matched so far, "
                                             rf"at 5 points each: {halves + 5 * pairs} operations"):
        fixed_weight_subcode(bch_code(6, 3), 5)
    monkeypatch.setenv("DISJUNCT_MAX_OPS", str(halves + 5 * pairs))
    assert fixed_weight_subcode(bch_code(6, 3), 5).num_columns == pairs


@pytest.mark.parametrize("m", range(2, 17))
def test_subcode_walk_fits_wherever_the_support_count_did(monkeypatch, m):
    # a layer of at most 10^7 supports walks at most C(n, w) subsets, within the default budget;
    # each call, refused at budget -1, reports the work it charges
    n, code = 2**m - 1, bch_code(m, 2)
    monkeypatch.setenv("DISJUNCT_MAX_OPS", "-1")
    small = itertools.takewhile(lambda s: comb(n, s) <= 10**7, range(n // 2 + 1))  # C(n, s) rises to n/2
    admitted = sorted({w for s in small for w in (s, n - s)} - {0})
    assert {1, n - 1, n} <= set(admitted)
    for w in admitted:
        with pytest.raises(BudgetExceeded) as refused:
            fixed_weight_subcode(code, w)
        work = int(re.search(r": (\d+) operations", str(refused.value))[1])
        assert work <= comb(n, w) and work <= MAX_OPS


def hamming_weights(m: int) -> list[int]:
    """A_0..A_n of the [n = 2^m - 1, n - m] Hamming code, from its weight enumerator
    ((1 + z)^n + n (1 + z)^h (1 - z)^(h+1)) / (n + 1), h = (n-1)/2, and (1 + z)^h (1 - z)^(h+1)
    = (1 - z^2)^h (1 - z)."""
    n = 2**m - 1
    even = [(-1) ** (k // 2) * comb((n - 1) // 2, k // 2) if k % 2 == 0 else 0 for k in range(n + 1)]
    return [(comb(n, k) + n * (even[k] - (even[k - 1] if k else 0))) // (n + 1) for k in range(n + 1)]


def refusal_at(code, w, budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("DISJUNCT_MAX_OPS", str(budget))
        with pytest.raises(BudgetExceeded) as refused:
            fixed_weight_subcode(code, w)
    return str(refused.value)


@pytest.mark.parametrize("m", range(2, 12))
def test_subcode_charges_each_codeword_at_its_weight(m):
    # one syndrome word: a pair per codeword, so each layer the (w-1)-subset walk admitted charges
    # its halves and then N*w points, N = A_w of the Hamming code, read from the refusal one below
    n, code, weights = 2**m - 1, bch_code(m, 2), hamming_weights(m)
    walks = itertools.takewhile(lambda s: comb(n, s - 1) <= MAX_OPS, range(1, n // 2 + 1))
    for w in sorted({w for s in walks for w in (s, n - s)}):
        walk = min(w, n - w)
        halves = sum(comb(n, h) for h in (walk // 2, walk - walk // 2) if h)
        charge = halves + weights[w] * w
        pairs = f" and {weights[w]} pairs matched so far, at {w} points each" if weights[w] else ""
        assert refusal_at(code, w, charge - 1).endswith(
            f"{pairs}: {charge} operations exceed budget {charge - 1} (DISJUNCT_MAX_OPS)")
        if m <= 4:
            assert fixed_weight_subcode(code, w).num_columns == weights[w]


def test_subcode_charges_every_first_word_match():
    # with the first of two syndrome words zero, each of the C(15, walk) walk-subsets is a pair
    # matched on the first word, though only the Hamming codewords survive the second
    code = codes.ParityCheckCode(15, np.vstack([np.zeros((64, 15), dtype=np.uint8), HAMMING_15]))
    for w in range(1, 16):
        walk = min(w, 15 - w)
        halves = sum(comb(15, h) for h in (walk // 2, walk - walk // 2) if h)
        charge = halves + comb(15, walk) * w
        assert refusal_at(code, w, charge - 1).endswith(
            f"and {comb(15, walk)} pairs matched so far, at {w} points each: {charge} operations exceed budget "
            f"{charge - 1} (DISJUNCT_MAX_OPS)")
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("DISJUNCT_MAX_OPS", str(charge))
            assert fixed_weight_subcode(code, w).num_columns == hamming_weights(4)[w]


@pytest.mark.parametrize("delta", [2, 3, 5, 7])
def test_meet_in_the_middle_on_every_walk(delta):
    # n = 15: walks 0..7 over w = 1..15, so both halves, even and odd splits and the empty half
    code = bch_code(4, delta)
    for w in range(1, code.n + 1):
        rows = fixed_weight_subcode(code, w).points.T
        assert np.array_equal(rows, fixed_weight_supports_by_lex(code, w)), w


EDGE_CODE = codes.ParityCheckCode(17, np.hstack([HAMMING_15, HAMMING_15[:, [6]], np.zeros((8, 1), np.uint8)]))


@pytest.mark.parametrize("w,size", [(1, 1), (2, 1), (16, 2), (17, 0)])
def test_meet_in_the_middle_at_the_edge_weights(w, size):
    # column 15 repeats column 6 and column 16 is zero: weight-1 and weight-2 words exist, and
    # w = n - 1 and w = n walk one point and none; all 17 columns sum to column 6's syndrome
    rows = fixed_weight_subcode(EDGE_CODE, w).points.T
    assert np.array_equal(rows, fixed_weight_supports_by_lex(EDGE_CODE, w)) and len(rows) == size
    assert set(map(tuple, rows.tolist())) == dense_syndrome_supports(EDGE_CODE.check, w)


@pytest.mark.parametrize(
    "m,delta,w,size,digest",
    [
        (6, 5, 6, 18270, "7a2eb7ba055ca3b3adfcef7c3ea854b2fb5af20e9e201a1a8c742c848e1df8e9"),
        (7, 5, 5, 16002, "a6a44b206c34368df505d813cc5d75b89e49fd8faa6de2de02bad85297f3f7d9"),
    ],
)
def test_meet_in_the_middle_keeps_the_walked_layers(m, delta, w, size, digest):
    # digests of the layers the (w-1)-subset walk built, which took 1.3 s and 2.0-2.4 s
    layer = fixed_weight_subcode(bch_code(m, delta), w)
    assert layer.num_columns == size and layer.digest == digest


# -- subset enumeration ------------------------------------------------------------------


@pytest.mark.parametrize("n,t", [(1, 1), (5, 5), (6, 1), (9, 4), (12, 11), (30, 3), (127, 126)])
@pytest.mark.parametrize("size", [1, 7, None])
def test_colex_chunks_match_colex_oracles(n, t, size):
    chunks = list(colex_chunks(n, t) if size is None else colex_chunks(n, t, size))
    step = size or 1 << 15
    assert [len(c) for c in chunks] == [min(step, comb(n, t) - lo) for lo in range(0, comb(n, t), step)]
    assert all(c.dtype == np.int64 and c.shape[1] == t for c in chunks)
    rows = [tuple(r) for r in np.concatenate(chunks).tolist()]
    assert rows == list(colex_subsets(n, t)) == sorted(itertools.combinations(range(n), t), key=lambda s: s[::-1])
    assert [sum(comb(c, i + 1) for i, c in enumerate(r)) for r in rows] == list(range(len(rows)))
    # the tuple walk it replaced agrees on the largest point, and row for row unless 3 <= t < n - 1
    old = [tuple(r) for r in np.concatenate(list(index_chunks(_colex_subsets(n, t), t, step))).tolist()]
    assert sorted(old, key=lambda s: s[::-1]) == rows
    assert [r[-1] for r in old] == [r[-1] for r in rows]
    assert (old == rows) == (t <= 2 or t >= n - 1)


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


def test_ks_rejects_rows_past_int32():
    n = 2**15 + 1  # q * n = 2**31 + 2**16 rows: refused before int32 supports wrap
    code = QaryCode(Field(2, 16), n, np.zeros((1, n), dtype=np.int32))
    with pytest.raises(InputError, match="Kautz-Singleton image has points outside"):
        kautz_singleton(code)


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
            st.integers(0, min(m, 12)).flatmap(lambda w: st.lists(
                st.frozensets(st.integers(0, m - 1), min_size=w, max_size=w), unique=True, max_size=20)),
        )
    )
)
def test_packed_bits_match_supports(data):
    m, supports = data
    cols = tuple(tuple(sorted(s)) for s in supports)
    matrix = load_design(cols, length=m)
    packed = matrix.packed
    assert packed.shape == (len(cols), max(1, -(-m // 64)))
    assert matrix.points.dtype == np.int32 and not matrix.points.flags.writeable
    assert np.array_equal(matrix.points.T, np.array(cols, dtype=np.int32).reshape(len(cols), matrix.weight))
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


# -- pair intersections ------------------------------------------------------------------


def _first_columns(matrix, n_cols):
    return ConstantWeightCode(matrix.length, matrix.points[:, :n_cols])


# (block, scratch) settings; a scratch of 1 byte builds one block at a time.  Block 1 and the
# 1-byte scratch send tiles through Python one by one, so larger cases skip the slowest settings.
ALL = [(b, s) for b in (1, 7, codes.PAIR_BLOCK) for s in (1, errors.SCRATCH)]
MOST = [setting for setting in ALL if setting != (1, 1)]
FEW = [(7, errors.SCRATCH), (codes.PAIR_BLOCK, 1), (codes.PAIR_BLOCK, errors.SCRATCH)]

PAIR_CASES = {
    "fano": (fano, ALL),
    "path": (path, ALL),
    "weight-0": (lambda: load_design([()], length=3), ALL),
    "length-0": (lambda: load_design([()], length=0), ALL),
    "one-column": (lambda: load_design([(0, 1, 2)]), ALL),
    **{f"ks-rs-8-3-first-{n}": (functools.partial(lambda n: _first_columns(ks_rs(8, 3), n), n), ALL)
       for n in (31, 32, 33, 65)},  # around the padding of a 32-column block
    "ks-rs-8-3": (lambda: ks_rs(8, 3), MOST),
    "ks-rs-17-2": (lambda: ks_rs(17, 2), MOST),  # M = 272: two slabs of points per default tile
    "bch-cw-6-3-3": (lambda: fixed_weight_subcode(bch_code(6, 3), 3), MOST),
    "bch-cw-6-5-5": (lambda: fixed_weight_subcode(bch_code(6, 5), 5), FEW),  # N = 1890
    "ks-rs-16-3": (lambda: ks_rs(16, 3), FEW),  # N = 4096
}


@functools.cache
def _pair_case(name):
    """The matrix, its profiles by a popcount per column, the old broadcast counts by
    intersection size, and the old min_distance."""
    matrix = PAIR_CASES[name][0]()
    expected = cw_counts_by_broadcast(matrix.packed, matrix.weight)[::-1]
    return matrix, profiles_by_columns(matrix), expected, min_distance_by_columns(matrix)


@pytest.mark.parametrize("name,block,scratch", [
    (name, block, scratch) for name, (_, grid) in PAIR_CASES.items() for block, scratch in grid
])
def test_intersection_counts_match_the_kernels_they_replace(monkeypatch, name, block, scratch):
    matrix, profiles, expected, distance = _pair_case(name)
    monkeypatch.setattr(codes, "PAIR_BLOCK", block)
    monkeypatch.setattr(errors, "SCRATCH", scratch)
    rows = intersection_counts(matrix)
    assert rows.dtype == np.int64 and np.array_equal(rows, profiles)
    assert tuple(rows.sum(axis=0).tolist()) == expected
    assert rows.sum() == matrix.num_columns**2
    assert matrix.min_distance() == distance


def test_intersection_counts_refuse_inexact_column_sizes():
    huge = types.SimpleNamespace(weight=1 << 24)  # checked before any other field
    with pytest.raises(InputError, match="exact float32"):
        intersection_counts(huge)


# -- spectra by structure -----------------------------------------------------------


@pytest.mark.parametrize("sample", [codes.SPAN_SAMPLE, 1])  # 1: the basis grows word by word
@pytest.mark.parametrize("q,k", [(4, 2), (4, 3), (5, 2), (8, 3), (9, 3), (16, 3)])
def test_linear_ks_counts_match_the_pair_count(monkeypatch, q, k, sample):
    monkeypatch.setattr(codes, "SPAN_SAMPLE", sample)
    matrix = ks_rs(q, k)
    row = matrix.linear_ks_counts
    assert row is not None and row.dtype == np.int64
    assert (intersection_counts(matrix) == row).all()  # every column has the one profile


NOT_LINEAR_KS = {
    "rs-minus-one-word": lambda: kautz_singleton(QaryCode(Field(5, 1), 4, rs_code(Field(5, 1), 2).words[1:])),
    "symbols-swapped": lambda: kautz_singleton(symbols_swapped_rs82()),
    "alphabet-6": lambda: load_design([(a, 6 + b) for a in range(6) for b in range(6)], length=12),
}


@pytest.mark.parametrize("sample", [codes.SPAN_SAMPLE, 1])
@pytest.mark.parametrize("name", sorted(NOT_LINEAR_KS))
def test_linear_ks_counts_fall_back_to_the_pair_count(monkeypatch, name, sample):
    monkeypatch.setattr(codes, "SPAN_SAMPLE", sample)
    matrix = NOT_LINEAR_KS[name]()
    assert matrix.linear_ks_counts is None
    profiles, multiplicities = matrix.overlap_profiles
    want_profiles, want_multiplicities = np.unique(profiles_by_columns(matrix), axis=0, return_counts=True)
    assert np.array_equal(profiles, want_profiles) and np.array_equal(multiplicities, want_multiplicities)
    counts = multiplicities @ profiles
    assert tuple(counts.tolist()) == cw_counts_by_broadcast(matrix.packed, matrix.weight)[::-1]
    assert np.count_nonzero(counts) >= 3
    n_cols = matrix.num_columns
    monkeypatch.setenv("DISJUNCT_MAX_OPS", str(n_cols**2 - 1))
    assert matrix.overlap_profiles[0] is profiles  # counted once, then kept
    with pytest.raises(BudgetExceeded, match=rf"^pair count over {n_cols}\^2 column pairs: {n_cols**2} operations"):
        NOT_LINEAR_KS[name]().overlap_profiles


@pytest.mark.parametrize("entries", [1, 12])  # one word per pass, and three
def test_span_check_sees_every_pass(monkeypatch, entries):
    rs = rs_code(Field(5, 1), 2)
    expected = codes.linear_weights(rs.field, rs.words)
    odd = rs.words.copy()
    odd[14, 0] = (odd[14, 0] + 1) % 5  # distance 1 from RS(5,2): no codeword, and distinct
    # word 14 is not in the sampled basis, so only the span passes can find it
    assert 14 not in np.random.default_rng(0).integers(25, size=codes.SPAN_SAMPLE)
    monkeypatch.setattr(codes, "SPAN_ENTRIES", entries)
    assert np.array_equal(codes.linear_weights(rs.field, rs.words), expected)
    assert codes.linear_weights(rs.field, odd) is None


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
    # a ragged design is refused at its first block whose size differs from the first block's
    for ragged in ([(0, 1), (2,)], [(2,), (0, 1)]):
        with pytest.raises(InputError, match="^column 1 does not have weight"):
            load_design(ragged)
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


def _digit_boundary(m):
    # the first and last points, and every point next to a power of ten below m
    edges = sorted({0, m - 1} | {p + d for p in (1, 10, 100, 1000) for d in (-1, 0) if 0 <= p + d < m})
    return load_design(list(zip(edges, edges[1:])), length=m)


RENDER_CASES = {
    **{f"M={m}": functools.partial(_digit_boundary, m) for m in (10, 11, 100, 101, 1000)},
    "N=0": lambda: fixed_weight_subcode(bch_code(6, 5), 3),
    "fano": fano,
    "ks83": lambda: ks_rs(8, 3),
    "bch-5-5-5": lambda: fixed_weight_subcode(bch_code(5, 5), 5),
}


@pytest.mark.parametrize("name", sorted(RENDER_CASES))
def test_matrix_bytes_match_the_joined_text(tmp_path, monkeypatch, name):
    matrix = RENDER_CASES[name]()
    text = matrix_text_by_join(matrix).encode()
    for points in (textio.RENDER_POINTS, 5):  # 5: pieces of one or two columns
        monkeypatch.setattr(textio, "RENDER_POINTS", points)
        assert b"".join(matrix_bytes(matrix)) == text
        assert write_matrix(tmp_path / "m.txt", matrix) == matrix_digest(matrix) == hashlib.sha256(text).hexdigest()
        assert (tmp_path / "m.txt").read_bytes() == text
    again = read_matrix(tmp_path / "m.txt")
    assert (again.length, again.weight, again.columns) == (matrix.length, matrix.weight, matrix.columns)


def test_matrix_bytes_of_many_rows_allocate_no_row_table(tmp_path):
    m = 10**7
    matrix = load_design([(0, 9), (99_999, m - 1)], length=m)
    tracemalloc.start()
    try:
        body = b"".join(matrix_bytes(matrix))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert body == matrix_text_by_join(matrix).encode() == b"10000000 2 2\n0 9\n99999 9999999\n"
    assert peak < m // 1000
    write_matrix(tmp_path / "m.txt", matrix)
    assert read_matrix(tmp_path / "m.txt").columns == matrix.columns


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
    # a duplicate column; w+1 points next to w-1, so the token count is still N*w
    for body in ("6 3 2\n0 1\n2 3\n0 1\n", "6 3 2\n0 1 2\n3\n4 5\n"):
        bad.write_text(body)
        with pytest.raises(InputError):
            read_matrix(bad)


def test_read_matrix_splits_lines_like_splitlines_across_pieces(tmp_path, monkeypatch):
    monkeypatch.setattr(textio, "READ_BYTES", 1 << 14)
    matrix = ks_rs(16, 3)  # about 190 000 characters: several 16 Ki pieces
    lines = b"".join(matrix_bytes(matrix)).decode().splitlines()
    body = "".join(f"{ln}\n" + ("  # note\n\n" if i % 97 == 0 else "") for i, ln in enumerate(lines))
    path = tmp_path / "m.txt"
    path.write_text(body)
    assert read_matrix(path).digest == matrix.digest
    path.write_text("4 2 1\f0\x1c1\n")  # str.splitlines breaks at form feeds and separators
    assert read_matrix(path).columns == ((0,), (1,))


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
    code = load_design(sorted(tuple(sorted(s)) for s in supports), length=m)
    path = tmp_path_factory.mktemp("rt") / "m.txt"
    write_matrix(path, code)
    again = read_matrix(path)
    assert again.columns == code.columns and again.digest == matrix_digest(code)


# -- the byte tokenizer, the 3-digit renderer and the blocked packer against their predecessors ----

# fragments of a file around its integers: separators within a line, line breaks, lines that are
# blank or comments (one with a UTF-8 letter), and tokens no integer reader takes alike
_SEPARATORS = [b" ", b"  ", b"\t", b" \x1f"]
_BREAKS = [b"\n", b"\n", b"\r\n", b"\r", b"\f", b"\x1c"]
_EXTRA_LINES = [b"", b"  ", b"# note", b"  \t# caf\xc3\xa9"]
# (no non-ASCII whitespace: `str.split` took it and the tokenizer refuses it, as a test below pins)
_ODD_TOKENS = [b"+1", b"-1", b"-0", b"+0", b"007", b"x", b"1.5", b"\xff", b"#", b"+", b"-", b"2-1", b"+-1",
               b"99999999999999999999", b"0000000000000000000003"]


@st.composite
def _int_file(draw, header: tuple[int, ...] | None, rows: list[list[int]]) -> bytes:
    """The rows, after the header if any, rendered with random separators and extra lines; some
    files get an odd token, a row one token short or long, or no final line break."""
    lines = [[str(v).encode() for v in row] for row in ([list(header)] if header else []) + rows]
    if lines and draw(st.integers(0, 3)) == 0:
        line = draw(st.sampled_from(lines))
        if line:
            line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
    if lines and draw(st.integers(0, 4)) == 0:
        line = draw(st.sampled_from(lines))
        line[:] = line[:-1] if line and draw(st.booleans()) else line + [b"1"]
    out = []
    for line in lines:
        for _ in range(draw(st.integers(0, 1)) * draw(st.integers(1, 2))):
            out.append(draw(st.sampled_from(_EXTRA_LINES)) + draw(st.sampled_from(_BREAKS)))
        indent = draw(st.sampled_from([b"", b" ", b"\t"]))
        spaced = b"".join(t + draw(st.sampled_from(_SEPARATORS)) for t in line[:-1])
        out.append(indent + spaced + (line[-1] if line else b""))
        out.append(draw(st.sampled_from(_BREAKS)))
    if out and draw(st.integers(0, 5)) == 0:
        out.pop()  # no line break at the end
    return b"".join(out)


def _points(m: int) -> st.SearchStrategy[int]:
    return st.integers(0, max(m - 1, 0))


@st.composite
def _matrix_file(draw) -> bytes:
    m = draw(st.integers(0, 9))
    w = draw(st.integers(0, min(m, 3)))
    rows = draw(st.lists(st.lists(_points(m), min_size=w, max_size=w, unique=True).map(sorted), max_size=5))
    header = (m, len(rows) + draw(st.sampled_from([0, 0, 0, 1, -1])), w)
    return draw(_int_file(header, rows))


@st.composite
def _design_file(draw) -> bytes:
    m = draw(st.integers(1, 9))
    w = draw(st.integers(1, min(m, 3)))
    rows = draw(st.lists(st.lists(_points(m), min_size=w, max_size=w, unique=True), max_size=5))
    n = len(rows)
    header = draw(st.sampled_from([None, (m, n, w), (m - 1, n, w), (m, n + 1, w), (m, n, 3)]))
    return draw(_int_file(header, rows))


@st.composite
def _code_file(draw) -> bytes:
    q, n = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9])), draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(st.integers(0, q), min_size=n, max_size=n), max_size=5))
    return draw(_int_file((q, n, len(rows) + draw(st.sampled_from([0, 0, 0, 1]))), rows))


def _read_or_refuse(read, path):
    try:
        return read(path)
    except InputError:
        return None


def _assert_same_reads(path, body: bytes, read, oracle, same):
    path.write_bytes(body)
    try:
        expected = _read_or_refuse(oracle, path)
    except ValueError:  # the loadtxt readers let numpy refuse a dimension of 2^63 or more
        expected = ValueError
    for piece in (textio.READ_BYTES, 1, 5):  # 1 and 5: pieces that cut lines, comments and tokens
        with mock.patch.object(textio, "READ_BYTES", piece):
            got = _read_or_refuse(read, path)
        if expected is not ValueError:
            assert (got is None) == (expected is None), body
            assert got is None or same(got, expected), body


def _same_matrix(a, b) -> bool:
    return (a.length, a.weight, a.points.tolist()) == (b.length, b.weight, b.points.tolist())


@settings(max_examples=400, deadline=None)
@given(_matrix_file())
def test_read_matrix_matches_the_loadtxt_reader(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "tokenized_matrix.txt"
    _assert_same_reads(path, body, read_matrix, read_matrix_by_loadtxt, _same_matrix)


@settings(max_examples=400, deadline=None)
@given(_design_file())
def test_read_design_matches_the_loadtxt_reader(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "tokenized_design.txt"
    _assert_same_reads(path, body, read_design, read_design_by_loadtxt, _same_matrix)


@settings(max_examples=300, deadline=None)
@given(_code_file())
def test_read_code_matches_the_loadtxt_reader(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "tokenized_code.txt"
    same = lambda a, b: a.field == b.field and a.n == b.n and a.words.tolist() == b.words.tolist()
    _assert_same_reads(path, body, read_code, read_code_by_loadtxt, same)


def test_readers_refuse_non_ascii_outside_comments(tmp_path):
    # `str.split` took NBSP and U+2028 as whitespace; the byte tokenizer takes ASCII only, and a
    # comment may still hold any UTF-8
    path = tmp_path / "m.txt"
    for sep in ("\u00a0", "\u2028"):
        path.write_text(f"4 2 2\n0{sep}1\n2 3\n", encoding="utf-8")
        with pytest.raises(InputError, match="is not an integer"):
            read_matrix(path)
    path.write_text("# café\n4 2 2\n0 1\n  #  \n2 3\n", encoding="utf-8")
    assert read_matrix(path).columns == ((0, 1), (2, 3))
    path.write_bytes(b"4 2 2\n0 1\n2 3\n# \xff\n")
    with pytest.raises(InputError, match="not a text file"):
        read_matrix(path)
    path.write_text("\u00b2 3 4\n1 2 3\n", encoding="utf-8")  # `str.isdigit` takes "²", and `int` refused it
    with pytest.raises(InputError, match="is not an integer"):
        read_design(path)


def test_readers_refuse_a_header_larger_than_the_file(tmp_path):
    # each integer takes two bytes: a header naming more is refused before anything is allocated
    path = tmp_path / "m.txt"
    path.write_text("4 1000000000000 3\n0 1 2\n")
    with pytest.raises(InputError, match="header says N=1000000000000"):
        read_matrix(path)
    path.write_text("4 5 1000000000000\n")  # q n N
    with pytest.raises(InputError, match="header says N=1000000000000"):
        read_code(path)
    path.write_text("4 1000000000000 0\n")  # N empty columns are equal, however many
    with pytest.raises(InputError, match="^columns 0 and 1 are equal$"):
        read_matrix(path)
    path.write_text("4 3 1\n0\n1\n2\n")
    assert read_matrix(path).columns == ((0,), (1,), (2,))  # 12 bytes hold 3 rows of 1


def _through_pipe(read, body: bytes):
    """`read` of a pipe holding body: a file whose size `fstat` does not tell."""
    r, w = os.pipe()
    try:
        os.write(w, body)  # well under the pipe's buffer, so nothing waits for the reader
        os.close(w)
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)


def test_readers_take_no_size_from_a_pipe_header():
    # a pipe has no size to check the header against: its rows are kept as they arrive, so a
    # header naming 10^11 rows is refused by its count, not by an allocation of 400 GB
    with pytest.raises(InputError, match="header says N=100000000000, found 1 rows"):
        _through_pipe(read_matrix, b"4 100000000000 3\n0 1 2\n")
    with pytest.raises(InputError, match="header says N=100000000000, found 0 rows"):
        _through_pipe(read_code, b"4 5 100000000000\n")
    with pytest.raises(InputError, match="header says N=2, found 3 rows"):
        _through_pipe(read_matrix, b"4 2 2\n0 1\n2 3\n1 2\n")
    matrix = _through_pipe(read_matrix, b"4 3 2\n0 1\n2 3\n1 2\n")
    assert matrix.columns == ((0, 1), (2, 3), (1, 2)) and not matrix.points.flags.writeable
    assert matrix.points.dtype == np.int32 and matrix.points.flags.c_contiguous
    code = _through_pipe(read_code, b"3 2 2\n0 1\n2 0\n")
    assert code.words.tolist() == [[0, 1], [2, 0]]
    ks = ks_rs(8, 3)
    assert _through_pipe(read_matrix, b"".join(matrix_bytes(ks))).digest == ks.digest


def test_read_design_sorts_the_blocks_in_numpy(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("5 3 2\n4 1\n3 0\n2 1\n")  # the header agrees: blocks sorted, not the header
    design = read_design(path)
    assert design.columns == ((1, 4), (0, 3), (1, 2)) and design.length == 5
    assert design.points.dtype == np.int32 and not design.points.flags.writeable


_DIGIT_EDGES = sorted({p + d for p in (10**k for k in range(10)) for d in (-1, 0, 1)} | {2**31 - 2, 2**31 - 1})


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 10, 11, 999, 1000, 1001, 10**6 - 1, 10**6, 10**6 + 1, 2**31 - 1])
       | st.integers(1, 2**31 - 1), st.integers(0, 4), st.data())
def test_matrix_bytes_match_the_digit_oracle(m, w, data):
    # M crossing 10^3 and 10^6 changes the number of 3-digit groups; points next to powers of ten
    # change the number of digits within one
    w = min(w, m)
    point = st.integers(0, m - 1) | st.sampled_from([p for p in _DIGIT_EDGES if p < m] + [m - 1])
    supports = data.draw(st.sets(st.frozensets(point, min_size=w, max_size=w), max_size=6))
    matrix = load_design(sorted(tuple(sorted(s)) for s in supports), length=m)
    expected = b"".join(matrix_bytes_by_digits(matrix))
    for points in (textio.RENDER_POINTS, 1, 5):
        with mock.patch.object(textio, "RENDER_POINTS", points):
            assert b"".join(matrix_bytes(matrix)) == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 63, 64, 65, 128, 192, 256, 1024, 4096]) | st.integers(1, 300), st.integers(0, 4), st.data())
def test_packed_matches_the_row_by_row_packer(m, w, data):
    # up to 4 words a point are summed by the bincount; M = 1024 and 4096 take the sparse row loop
    w = min(w, m)
    supports = data.draw(st.sets(st.frozensets(st.integers(0, m - 1), min_size=w, max_size=w), max_size=40))
    blocks = sorted(tuple(sorted(s)) for s in supports)
    expected = packed_by_rows(load_design(blocks, length=m))
    for points in (codes.PACK_POINTS, 1, 7):  # 1 and 7: a block of one column, or a few
        with mock.patch.object(codes, "PACK_POINTS", points):
            packed = load_design(blocks, length=m).packed
        assert packed.dtype == np.uint64 and np.array_equal(packed, expected)


# -- validation of core types ------------------------------------------------------------


def test_qary_code_rejects_duplicates_and_range():
    fld = Field(3, 1)
    with pytest.raises(InputError):
        QaryCode(fld, 2, np.array([[0, 1], [0, 1]]))
    with pytest.raises(InputError):
        QaryCode(fld, 2, np.array([[0, 3]]))
    for bad in (-1, 2**32):  # checked before the uint8 cast, which would wrap them to 255 and 0
        with pytest.raises(InputError, match="symbol outside alphabet range"):
            QaryCode(fld, 2, np.array([[0, bad]]))



def test_qary_code_distinctness_beyond_the_key_prefix():
    fld, n = Field(2, 1), 70  # the sort key holds the first 63 one-bit symbols
    words = np.zeros((3, n), dtype=np.int32)
    words[1, 65] = words[2, 69] = 1
    assert QaryCode(fld, n, words).size == 3  # equal keys, distinct words
    with pytest.raises(InputError, match="codewords are not distinct"):
        QaryCode(fld, n, words[[0, 1, 0]])
    n = 2**20 + 1
    assert QaryCode(Field(2, 11), n, np.zeros((1, n), dtype=np.int32)).size == 1
    with pytest.raises(InputError, match="codewords are not distinct"):  # n = 0: every key is empty
        QaryCode(fld, 0, np.zeros((2, 0), dtype=np.int32))


# 5-point supports on 2^20 points, whose sort keys hold 3 points of 20 bits: a shared 3-point
# prefix ties, and only the last two points can tell the columns apart
_PREFIXES = [(0, 1, 2), (0, 1, 3), (5, 2**19, 999_999)]
_TAILS = list(itertools.combinations([2**20 - 3, 2**20 - 2, 2**20 - 1], 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_PREFIXES), st.sampled_from(_TAILS)).map(lambda pt: pt[0] + pt[1]), max_size=8))
def test_distinct_columns_proved_past_the_key_prefix(supports):
    if len(set(supports)) == len(supports):
        assert load_design(supports, length=2**20).columns == tuple(supports)
        return
    with pytest.raises(InputError) as refused:
        load_design(supports, length=2**20)
    a, b = map(int, re.fullmatch(r"columns (\d+) and (\d+) are equal", str(refused.value)).groups())
    assert a != b and supports[a] == supports[b]


def test_distinct_keys_leave_the_columns_unpacked(tmp_path):
    # the sort keys prove these columns distinct, so validation builds no bit-packed form
    path = tmp_path / "ks.txt"
    write_matrix(path, ks_rs(8, 3))
    for matrix in (read_matrix(path), load_design(FANO_BLOCKS)):
        assert "packed" not in vars(matrix)
    # the keys read the rows of the (w, N) points, which the file's (N, w) supports transpose
    points = read_matrix(path).points
    assert points.shape == (7, 512) and points.dtype == np.int32 and points.flags.c_contiguous
    assert np.array_equal(points.T, np.array(ks_rs(8, 3).columns))


def test_tied_empty_columns_are_named(tmp_path):
    # empty supports key 0, so they tie and the lexsort of the points names the first equal pair
    with pytest.raises(InputError, match="^columns 0 and 1 are equal$"):
        load_design([(), ()])
    path = tmp_path / "empty.txt"
    path.write_text("3 2 0\n\n\n")
    with pytest.raises(InputError, match="^columns 0 and 1 are equal$"):
        read_matrix(path)
    # keys of the first three points tie for all three columns; the equal pair is not adjacent
    with pytest.raises(InputError, match="^columns 0 and 2 are equal$"):
        load_design([(0, 1, 2, 10), (0, 1, 2, 11), (0, 1, 2, 10)], length=2**20)
    # a tie in a wide matrix is named without ceil(M/64) packed words a column (8 EB here)
    with pytest.raises(InputError, match="^columns 0 and 1 are equal$"):
        ConstantWeightCode(10**20, np.array([[0, 0], [2**31 - 1, 2**31 - 1]]))


# w points a column: sorted and distinct, or any w points, some outside [0, m)
def _supports(m, w):
    point = st.integers(-2, m + 1)
    support = st.lists(st.integers(0, max(m - 1, 0)), unique=True, min_size=w, max_size=w).map(sorted)
    return st.lists(support | st.lists(point, min_size=w, max_size=w), max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda m: st.integers(0, min(m, 4)).flatmap(
    lambda w: st.tuples(st.just(m), st.just(w), _supports(m, w)))))
def test_constructor_matches_tuple_reference(data):
    # small m, so empty, repeated and duplicate supports all turn up
    m, w, supports = data
    points = np.array(supports, dtype=np.int64).reshape(len(supports), w).T
    if not supports_valid(m, supports, w):
        with pytest.raises(InputError):
            ConstantWeightCode(m, points)
        return
    matrix = ConstantWeightCode(m, points)
    assert matrix.columns == tuple(map(tuple, supports))
    assert (matrix.weight, matrix.num_columns) == (w, len(supports))
    assert matrix.points.dtype == np.int32 and not matrix.points.flags.writeable
    assert matrix.points.flags.c_contiguous
    assert ConstantWeightCode(m, matrix.points).columns == matrix.columns


def test_constructor_copies_writeable_indices_and_keeps_read_only_ones():
    points = np.array([[0, 1], [2, 3]], dtype=np.int32)  # columns (0, 2) and (1, 3)
    matrix = ConstantWeightCode(4, points)
    assert points.flags.writeable and not np.shares_memory(matrix.points, points)
    points[1, 1] = 2  # the caller's array stays theirs
    assert matrix.columns == ((0, 2), (1, 3)) and not matrix.points.flags.writeable
    points.flags.writeable = False
    assert ConstantWeightCode(4, points).points is points  # read-only C int32: kept, not copied
    strided = points.T.copy().T  # read-only-able, but not C order
    strided.flags.writeable = False
    assert ConstantWeightCode(4, strided).points.flags.c_contiguous


def test_validating_constructors_reject_a_duplicate_column(tmp_path):
    # `kautz_singleton` skips the distinctness check, as its words are proved distinct; these keep it
    path = tmp_path / "dup.txt"
    path.write_text("4 2 2\n0 1\n0 1\n")
    builds = [lambda: read_matrix(path), lambda: ConstantWeightCode(4, np.array([[0, 0], [1, 1]])),
              lambda: load_design([(0, 1), (0, 1)])]
    for build in builds:
        with pytest.raises(InputError, match="columns 0 and 1 are equal"):
            build()


def test_matrix_text_of_weight_zero_code():
    # one empty support is the only weight-0 code; its line in the text form is empty
    code = load_design([()], length=3)
    assert b"".join(matrix_bytes(code)) == b"3 1 0\n\n"
    assert b"".join(matrix_bytes(load_design([], length=3))) == b"3 0 0\n"


@pytest.mark.parametrize("length", [3, 0])
def test_weight_zero_matrix_file_round_trip(tmp_path, length):
    # the empty support's line is blank, and blank lines are dropped: the header alone gives N
    code = load_design([()], length=length)
    path = tmp_path / "m.txt"
    digest = write_matrix(path, code)
    again = read_matrix(path)
    assert (again.length, again.num_columns, again.weight, again.digest) == (length, 1, 0, digest)
    for body in (f"{length} 0 0\n", f"{length} 1 0\n"):
        path.write_text(body)
        assert read_matrix(path).num_columns == int(body.split()[1])
    refused = {f"{length} 1 0\n5\n": "has no points", "3 -1 0\n": "bad header", "3 0 -2\n": "bad header"}
    for body, why in refused.items():
        path.write_text(body)
        with pytest.raises(InputError, match=why):
            read_matrix(path)


def test_read_design_takes_a_header_only_when_the_blocks_agree(tmp_path):
    # "0 4 5" is followed by 4 blocks, as a header's N would be, but they have 3 points, not 5
    blocks = [(0, 4, 5), (1, 2, 3), (0, 1, 6), (2, 4, 6), (3, 5, 6)]
    body = "".join(" ".join(map(str, b)) + "\n" for b in blocks[1:])
    path = tmp_path / "d.blocks"
    path.write_text("0 4 5\n" + body)
    design = read_design(path)
    assert design.columns == tuple(blocks) and design.length == 7
    path.write_text("7 4 3\n" + body)
    headered = read_design(path)
    assert headered.columns == tuple(blocks[1:]) and headered.length == 7
    path.write_text("9 4 3\n" + body)
    assert read_design(path).length == 9  # a header may name rows no block uses
    path.write_text("6 4 3\n" + body)
    assert read_design(path).columns == ((3, 4, 6), *blocks[1:])  # point 6 is not below M = 6
    path.write_text("63 0 3\n")
    assert read_design(path).num_columns == 0


@pytest.mark.parametrize("length", [3, 0])
def test_weight_zero_design_file_round_trip(tmp_path, length):
    # a weight-0 header is followed by no nonblank line; "3 1 0" alone was read as the block (0, 1, 3)
    code = load_design([()], length=length)
    path = tmp_path / "d.blocks"
    digest = write_matrix(path, code)
    again = read_design(path)
    assert (again.length, again.num_columns, again.weight, again.digest) == (length, 1, 0, digest)
    path.write_text(f"{length} 2 0\n\n\n")
    with pytest.raises(InputError, match="^columns 0 and 1 are equal$"):
        read_design(path)
    path.write_text("3 1 0\n1 2 4\n")  # a block after it: the first line is a block too
    assert read_design(path).columns == ((0, 1, 3), (1, 2, 4))


def test_empty_layer_file_keeps_its_weight(tmp_path):
    # "63 0 3", the file of an empty weight-3 layer: `read_design` and its oracle gave points of shape (0, 0)
    path = tmp_path / "empty.txt"
    path.write_text("63 0 3\n")
    by_matrix, by_design, by_oracle = read_matrix(path), read_design(path), read_design_by_loadtxt(path)
    assert by_matrix.points.shape == by_design.points.shape == by_oracle.points.shape == (3, 0)
    assert by_design.digest == by_matrix.digest == by_oracle.digest == hashlib.sha256(b"63 0 3\n").hexdigest()
    # a header's w is not bounded by the file's size when N = 0: its text is the header alone, with no
    # per-point scratch (the separators of 10^7 points took 115 MiB)
    path.write_text("63 0 10000000\n")
    tracemalloc.start()
    try:
        digest = read_design(path).digest
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(b"63 0 10000000\n").hexdigest() and peak < 1 << 20


def test_constant_weight_validation():
    with pytest.raises(InputError, match="^column 1 does not have weight 2$"):
        load_design(((0, 1), (0,)), length=4)
    with pytest.raises(InputError, match=r"^column 0 has points outside \[0, 4\)$"):
        ConstantWeightCode(4, np.array([[0], [4]]))
    with pytest.raises(InputError, match="^column 1 is not sorted and duplicate-free$"):
        ConstantWeightCode(4, np.array([[0, 1], [1, 0]]))
    with pytest.raises(InputError, match=r"^points must be a \(w, N\) array"):
        ConstantWeightCode(4, np.array([0, 1]))


@pytest.mark.parametrize("block", [1, 2, 5, errors.BLOCK_WORDS])
def test_constant_weight_validation_names_the_first_bad_column_in_blocks(monkeypatch, block):
    # blocks of block // w columns: a point out of range anywhere is named before any unsorted column
    monkeypatch.setattr(errors, "BLOCK_WORDS", block)
    points = np.array([[0, 1, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11, 12, 13, 14, 15]])
    for col, value, why in ((6, 16, r"has points outside \[0, 16\)"), (6, -1, r"has points outside \[0, 16\)"),
                            (2, 0, "is not sorted and duplicate-free"), (2, 2, "is not sorted and duplicate-free")):
        bad = points.copy()
        bad[1, col] = value
        bad[1, 7] = 7  # column 7 is unsorted too: a later column, or a check that comes second
        with pytest.raises(InputError, match=f"^column {col} {why}$"):
            ConstantWeightCode(16, bad)
    assert ConstantWeightCode(16, points).columns[-1] == (7, 15)


def test_constant_weight_validation_scratch():
    # KS(16,4): 65536 columns of 15 points.  The range and order checks over the whole (w, N) array
    # held 1.88 MiB of bool temporaries (38.0 MiB at KS(16,5)); a block of columns at a time holds
    # 0.19 MiB.  The equal-column check adds its N-entry int64 key, 0.5 MiB
    peaks = _maxrss_mib(
        "import tracemalloc", "from disjunct.codes import ConstantWeightCode", "from disjunct.instances import ks_rs",
        "points = ks_rs(16, 4).points",
        *(line for distinct in (True, False) for line in (
            "tracemalloc.start()", f"ConstantWeightCode(240, points, {distinct})",
            "print(tracemalloc.get_traced_memory()[1] / 2**20)", "tracemalloc.stop()")))
    assert peaks[0] <= 0.25 and peaks[1] <= 0.8, peaks
