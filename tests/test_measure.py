import itertools
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_pa,
    column_counts_by_byte_planes,
    comp_false_positives_by_sets,
    covered_pairs_by_sets,
    draw,
    draw_block,
    first_witness_by_sets,
    mds_weight_distribution,
    mix64,
    probe_violations_by_sets,
    relaxation_by_capped_ways,
    relaxation_by_sets,
    sample_distinct_by_gaps,
    sample_distinct_by_sort,
    wilson_interval_by_ndtri,
)
from disjunct import codes, errors, measure
from disjunct.codes import (
    QaryCode,
    bch_code,
    fixed_weight_subcode,
    kautz_singleton,
    load_design,
    rs_code,
)
from disjunct.errors import BudgetExceeded, InputError
from disjunct.galois import Field
from disjunct.instances import fano, ks_rs
from disjunct.measure import (
    CHUNK,
    _column_sums,
    _decode_chunk_size,
    _decode_chunks,
    clopper_pearson_interval,
    comp_decode,
    disjunct_t_guarantee,
    estimate_pa,
    exact_pa,
    is_t_disjunct,
    pairwise_relaxation_prob,
    run_tests,
    simulate_decoding,
    wilson_interval,
)
from disjunct.rand import sample_distinct
from disjunct.spectra import cw_spectrum

# blocks of `sample_distinct`: one trial each, 977 // count trials (a short last block), the default
SAMPLER_BLOCKS = (1, 977, errors.BLOCK_WORDS)


# -- guarantee formula -------------------------------------------------------------


def test_disjunct_t_guarantee_examples():
    assert disjunct_t_guarantee(3, 4) == 2
    assert disjunct_t_guarantee(4, 6) == 3  # the Kautz-Singleton RS(5,2) image
    assert disjunct_t_guarantee(3, 6) is None  # disjoint supports
    with pytest.raises(InputError):
        disjunct_t_guarantee(3, 5)


# -- exhaustive disjunctness -----------------------------------------------------------


def test_disjoint_columns_always_disjunct(pair_disjoint):
    ok, witness = is_t_disjunct(pair_disjoint, 1)
    assert ok and witness is None


def test_nested_column_witness(toy_path):
    # the inner edge (0, 1) lies inside the union of its neighbours (0, 2) and (1, 3)
    assert is_t_disjunct(toy_path, 1) == (True, None)
    ok, witness = is_t_disjunct(toy_path, 2)
    assert not ok
    assert witness.defectives == (1, 2) and witness.probe == 0


def test_ks52_exactly_3_disjunct(ks52):
    ok3, _ = is_t_disjunct(ks52, 3)
    ok4, witness = is_t_disjunct(ks52, 4)
    assert ok3 and not ok4
    assert witness is not None
    union = set().union(*(ks52.columns[k] for k in witness.defectives))
    assert set(ks52.columns[witness.probe]) <= union


@pytest.mark.parametrize("t,want", [(2, ((0, 1), 20)), (3, ((0, 1, 2), 7)), (4, ((0, 1, 2, 3), 4))])
def test_ks43_witnesses_pinned(t, want):
    matrix = ks_rs(4, 3)
    ok, witness = is_t_disjunct(matrix, t)
    assert not ok and (witness.defectives, witness.probe) == want == first_witness_by_sets(matrix, t)


def test_witness_is_first_in_colex_order():
    # violations at (0, 3, 4) -> 5 and (1, 2, 4) -> 6 only, among subsets with largest point <= 4;
    # colex order takes (1, 2, 4) first, a walk lexicographic below the largest point (0, 3, 4)
    # (columns 0..4 have a point of their own, 10..14, so no union covers them)
    matrix = load_design([(0, 6, 10), (4, 8, 11), (5, 9, 12), (1, 7, 13), (2, 3, 14), (0, 1, 2), (3, 4, 5)])
    ok, witness = is_t_disjunct(matrix, 3)
    assert not ok and (witness.defectives, witness.probe) == ((1, 2, 4), 6) == first_witness_by_sets(matrix, 3)


def test_walk_past_int64_subset_count(monkeypatch, ks83):
    # C(512, 10) > 2^63 subsets: the rank table is capped, and the first subset already violates
    monkeypatch.setenv("DISJUNCT_MAX_OPS", str(10**40))
    ok, witness = is_t_disjunct(ks83, 10)
    assert not ok and (witness.defectives, witness.probe) == (tuple(range(10)), 10)
    assert first_witness_by_sets(ks83, 10) == (tuple(range(10)), 10)


def test_budget_rejection(monkeypatch, ks83):
    # KS(8,3) is 3-disjunct: C(512,3)*509 pairs are over the default budget, but P_A = 0 from the
    # inclusion-exclusion counts of one probe answers without a walk
    start = time.perf_counter()
    assert exact_pa(ks83, 3) == 0
    assert time.perf_counter() - start < 0.5
    assert is_t_disjunct(ks83, 3) == (True, None)
    # P_A > 0 at t = 4, and the walk that finds the witness is over budget
    assert exact_pa(ks83, 4) > 0
    with pytest.raises(BudgetExceeded, match=r"^walk over C\(512,4\)\*\(N-t\) \(subset, probe\) pairs: \d+ operations"):
        is_t_disjunct(ks83, 4)
    monkeypatch.setenv("DISJUNCT_MAX_OPS", "1000")
    with pytest.raises(BudgetExceeded, match="^inclusion-exclusion over 1 probe"):
        exact_pa(ks83, 2)  # both routes: 66,716,160 pairs, 7*2^7 + 3,584 entries


# -- exact violation probability ----------------------------------------------------------


def test_exact_pa_examples(fano_matrix, toy_path, pair_disjoint):
    assert exact_pa(fano_matrix, 1) == 0
    assert [exact_pa(toy_path, t) for t in (1, 2, 3)] == [0, Fraction(1, 6), Fraction(1, 2)]
    assert exact_pa(pair_disjoint, 1) == 0


def test_exact_pa_fano_t3_brute_force(fano_matrix):
    value = exact_pa(fano_matrix, 3)
    assert value == Fraction(2, 5)
    assert value == brute_force_pa(fano_matrix, 3)


def test_exact_pa_matches_brute_force_on_toys(fano_matrix, toy_path, ks52):
    for matrix, t in [(fano_matrix, 2), (fano_matrix, 3), (toy_path, 2), (toy_path, 3), (ks52, 3)]:
        assert exact_pa(matrix, t) == brute_force_pa(matrix, t)


def test_is_t_disjunct_iff_exact_pa_zero(fano_matrix, toy_path, ks52):
    for matrix, t in [(fano_matrix, 2), (fano_matrix, 3), (toy_path, 1), (toy_path, 2), (ks52, 3)]:
        ok, _ = is_t_disjunct(matrix, t)
        assert ok == (exact_pa(matrix, t) == 0)


# -- pairwise relaxation ----------------------------------------------------------------


def test_relaxation_examples(fano_matrix, pair_disjoint):
    assert pairwise_relaxation_prob(pair_disjoint, 1) == 0
    assert pairwise_relaxation_prob(fano_matrix, 2) == 0
    assert pairwise_relaxation_prob(fano_matrix, 3) == 1


def test_relaxation_dominates_exact(fano_matrix, ks52):
    for matrix, ts in [(fano_matrix, (1, 2, 3)), (ks52, (1, 2, 3, 4))]:
        for t in ts:
            assert exact_pa(matrix, t) <= pairwise_relaxation_prob(matrix, t)


def _seeded_design():
    """60 weight-4 blocks drawn on 30 points: overlaps 0..3, and many distinct profiles."""
    dense = list(itertools.combinations(range(30), 4))
    picks = np.random.default_rng(3).choice(len(dense), size=60, replace=False)
    return load_design([dense[i] for i in picks], 30)


RELAXATION_CASES = {
    "fano": fano,
    "ks43": lambda: ks_rs(4, 3),  # 1-disjunct, so every t here has a nonzero relaxation
    "ks52": lambda: ks_rs(5, 2),
    "ks83": lambda: ks_rs(8, 3),
    "rs52-minus-one-word": lambda: kautz_singleton(QaryCode(Field(5, 1), 4, rs_code(Field(5, 1), 2).words[1:])),
    "seeded": _seeded_design,
    "long": lambda: _long_design(),
    "bch-cw-5-3-3": lambda: fixed_weight_subcode(bch_code(5, 3), 3),
}


@pytest.mark.parametrize(
    "name,t,nonzero",
    [("ks43", 2, True), ("ks43", 3, True), ("ks43", 4, True), ("ks52", 4, True), ("fano", 3, True),
     ("rs52-minus-one-word", 4, True), ("seeded", 2, True), ("seeded", 3, True), ("long", 2, True),
     ("bch-cw-5-3-3", 3, True), ("fano", 2, False), ("ks83", 2, False), ("ks52", 3, False),
     ("rs52-minus-one-word", 3, False)],
)
def test_relaxation_matches_set_oracle(name, t, nonzero):
    matrix = RELAXATION_CASES[name]()
    want = relaxation_by_sets(matrix, t)
    assert (want > 0) == nonzero and pairwise_relaxation_prob(matrix, t) == want
    assert relaxation_by_capped_ways(matrix, t) == want
    assert exact_pa(matrix, t) <= want
    assert want == {("ks43", 4): Fraction(38846, 66185), ("ks52", 4): Fraction(130, 759)}.get((name, t), want)
    if name in ("rs52-minus-one-word", "seeded", "long"):
        assert len(matrix.overlap_profiles[0]) >= 2


@pytest.mark.parametrize("t", [1, 3, 4, 5, 8, 20, 100, 255, 510, 511])
def test_relaxation_matches_capped_ways_up_to_n_minus_one(t):
    # KS(8,3): N = 512, w = 8, overlaps 0..2; zero up to t = 3, then every t-set reaches w
    matrix = ks_rs(8, 3)
    want = relaxation_by_capped_ways(matrix, t)
    assert (want > 0) == (t >= 4) and pairwise_relaxation_prob(matrix, t) == want


def test_relaxation_past_the_support_budget():
    # KS(32,3): N = 32768, w = 31 and overlaps of at most 2, so 15 others reach 30 < w; at t = 16
    # a probe is reached by 16 others of overlap 2, or by 15 of them and one of overlap 1
    matrix = ks_rs(32, 3)
    weights = mds_weight_distribution(32, 31, 3)  # a column shares 31 - i points with A_i others
    assert pairwise_relaxation_prob(matrix, 15) == 0
    want = Fraction(comb(weights[29], 16) + comb(weights[29], 15) * weights[30], comb(32767, 16))
    assert want > 0 and pairwise_relaxation_prob(matrix, 16) == want


def _two_word_design():
    """30 weight-3 columns on M = 70 points, two packed words: 12 disjoint columns, then 18
    drawn on points 56..69, across the word boundary, where three columns cover many more."""
    dense = list(itertools.combinations(range(56, 70), 3))
    picks = np.random.default_rng(5).choice(len(dense), size=18, replace=False)
    return load_design([(3 * i, 3 * i + 1, 3 * i + 2) for i in range(12)] + [dense[i] for i in picks], 70)


@pytest.mark.parametrize("chunk", [1, 7, 63, 64, 65, 1 << 30])
def test_containment_walks_invariant_to_chunking(monkeypatch, chunk):
    matrix = _two_word_design()
    assert matrix.packed.shape[1] == 2
    monkeypatch.setattr(measure, "CHUNK", chunk)
    first, _, _ = next(measure._walk(matrix, 3))
    assert len(first) == min(chunk, 4060)  # C(30, 3) subsets, in chunks that split 64-trial words
    want = brute_force_pa(matrix, 3)
    assert want > 0 and exact_pa(matrix, 3) == want
    ok, witness = is_t_disjunct(matrix, 3)
    assert not ok and (witness.defectives, witness.probe) == first_witness_by_sets(matrix, 3)


def _long_design():
    """40 weight-4 columns on M = 75 points, past one word and not whole bytes: 10 disjoint
    columns, then 30 drawn on points 60..74, where unions of two or three cover many more."""
    dense = list(itertools.combinations(range(60, 75), 4))
    picks = np.random.default_rng(7).choice(len(dense), size=30, replace=False)
    return load_design([tuple(range(4 * i, 4 * i + 4)) for i in range(10)] + [dense[i] for i in picks], 75)


@pytest.mark.parametrize(
    "name,t",
    [("toy_path", 2), ("toy_path", 3), ("ks43", 3), ("ks43", 4), ("fano_matrix", 3), ("long", 2), ("long", 3)],
)
def test_containment_walks_match_set_oracles(request, name, t):
    # fano has M = 7, below one byte;
    # the two-word design is compared in test_containment_walks_invariant_to_chunking
    built = {"ks43": lambda: ks_rs(4, 3), "long": _long_design}
    matrix = built[name]() if name in built else request.getfixturevalue(name)
    want = brute_force_pa(matrix, t)
    assert want > 0 and exact_pa(matrix, t) == want
    ok, witness = is_t_disjunct(matrix, t)
    assert not ok and (witness.defectives, witness.probe) == first_witness_by_sets(matrix, t)


# -- inclusion-exclusion counts ------------------------------------------------------------


def _counts_pa(matrix, probes, t):
    """P_A from `_cover_counts` over the given probes, scaled to all N of them."""
    n_cols = matrix.num_columns
    counts = measure._cover_counts(matrix, probes) * (n_cols // len(probes))
    covered = sum(int(c) * comb(a, t) for a, c in enumerate(counts.tolist()))
    return Fraction(covered, comb(n_cols, t) * (n_cols - t))


COUNT_CASES = {
    "ks43": lambda: ks_rs(4, 3),
    "ks52": lambda: ks_rs(5, 2),
    "long": lambda: _long_design(),
    "two_word": lambda: _two_word_design(),
    "seeded": _seeded_design,
    "rs52-minus-one-word": RELAXATION_CASES["rs52-minus-one-word"],
}


@pytest.mark.parametrize(
    "name,t,nonzero",
    [("long", 2, True), ("long", 3, True), ("two_word", 3, True), ("ks43", 3, True), ("ks43", 4, True),
     ("ks52", 4, True), ("fano_matrix", 3, True), ("toy_path", 2, True), ("toy_path", 3, True), ("seeded", 2, True),
     ("rs52-minus-one-word", 4, True), ("ks43", 1, False), ("ks52", 3, False), ("fano_matrix", 2, False),
     ("pair_disjoint", 1, False), ("toy_path", 1, False), ("rs52-minus-one-word", 3, False)],
)
def test_cover_counts_match_brute_force(request, name, t, nonzero):
    matrix = COUNT_CASES[name]() if name in COUNT_CASES else request.getfixturevalue(name)
    want = brute_force_pa(matrix, t)
    assert (want > 0) == nonzero
    assert _counts_pa(matrix, range(matrix.num_columns), t) == want
    pair = [0, matrix.num_columns - 1]  # two probes: the index holds only the entries at their points
    counts = measure._cover_counts(matrix, pair).tolist()
    assert sum(c * comb(a, t) for a, c in enumerate(counts)) == covered_pairs_by_sets(matrix, t, pair)
    assert exact_pa(matrix, t) == want  # whichever route the work picks
    assert is_t_disjunct(matrix, t)[0] == (want == 0)


@pytest.mark.parametrize(
    "q,k", [(4, 2), (4, 3), (5, 2), (5, 3), (7, 2), (8, 2), (8, 3), (9, 2), (16, 2), (16, 3), (17, 2)],
)
def test_one_probe_counts_stand_for_every_probe_of_a_linear_ks_image(q, k):
    # every KS image the suite builds whose 2^w fits the scratch (KS(32,3) has w = 31); at
    # KS(16,3) a fixed sample of 96 probes stands for all 4096, at 1 ms each
    matrix = ks_rs(q, k)
    n_cols = matrix.num_columns
    assert matrix.linear_ks_counts is not None
    probes = range(n_cols) if n_cols < 4096 else np.random.default_rng(1).choice(n_cols, 96, replace=False)
    one = measure._cover_counts(matrix, [0])
    assert np.array_equal(measure._cover_counts(matrix, probes), len(probes) * one)
    assert one[n_cols - 1] == 1  # only S = {} is missed by all N - 1 others: each point has q^(k-1) columns


@pytest.mark.parametrize("q,k,t", [(4, 3, 4), (8, 3, 2)])  # the KS cases of the benchmark's exact step
def test_linear_ks_image_is_recognised_once_per_matrix(monkeypatch, q, k, t):
    calls = []
    linear_weights = codes.linear_weights
    monkeypatch.setattr(codes, "linear_weights", lambda *a: calls.append(1) or linear_weights(*a))
    matrix = ks_rs(q, k)
    exact_pa(matrix, t)
    pairwise_relaxation_prob(matrix, t)
    is_t_disjunct(matrix, t)
    matrix.min_distance()
    cw_spectrum(matrix)
    assert len(calls) == 1


def test_pair_counted_matrix_counts_its_pairs_once(monkeypatch):
    # a BCH layer is no KS image, so the relaxation, the spectrum and the distance share one pair count
    calls = []
    counts = codes.intersection_counts
    monkeypatch.setattr(codes, "intersection_counts", lambda m: calls.append(1) or counts(m))
    matrix = fixed_weight_subcode(bch_code(5, 5), 5)
    assert matrix.linear_ks_counts is None
    assert pairwise_relaxation_prob(matrix, 2) == relaxation_by_sets(matrix, 2)
    assert cw_spectrum(matrix).counts[:3] == (186, 0, 0)  # no two columns share w - 1 or w - 2 points
    assert matrix.min_distance() == 6
    assert len(calls) == 1
    profiles, multiplicities = matrix.overlap_profiles
    assert not profiles.flags.writeable and not multiplicities.flags.writeable


def test_probe_counts_differ_off_a_linear_ks_image():
    # the long design is no KS image, and its probes' counts differ: N times probe 0's would be wrong
    matrix = _long_design()
    n_cols = matrix.num_columns
    assert matrix.linear_ks_counts is None
    per_probe = {tuple(measure._cover_counts(matrix, [j]).tolist()) for j in range(n_cols)}
    assert len(per_probe) > 1
    assert _counts_pa(matrix, [0], 3) != brute_force_pa(matrix, 3) == exact_pa(matrix, 3)


def test_counted_cover_picks_the_cheaper_work(monkeypatch, fano_matrix, ks83):
    calls = []
    monkeypatch.setattr(measure, "_cover_counts", lambda m, probes: calls.append(len(probes)) or np.zeros(
        m.num_columns, dtype=np.int64))
    # fano at t = 2: the walk's 21 * 5 = 105 pairs against 7 * (3 * 2^3 + 9) = 231 for the counts
    assert measure._counted_cover(fano_matrix, 2) is None
    assert measure._counted_cover(fano_matrix, 3) is None and calls == []  # 140 against 231
    # the long design at t = 2: 780 * 38 = 29,640 pairs against 40 * 4 * 2^4 + sum_p deg(p)^2 = 3,594
    assert measure._counted_cover(_long_design(), 2) is not None and calls == [40]
    measure._counted_cover(ks83, 1)
    assert calls == [40, 1]  # one probe of the linear KS image: 7 * 2^7 + 3,584 against 512 * 511
    monkeypatch.setenv("DISJUNCT_MAX_OPS", "3593")
    with pytest.raises(BudgetExceeded, match="^inclusion-exclusion over 40 probe"):
        measure._counted_cover(_long_design(), 2)


def test_containment_walks_on_zero_tests():
    # M = 0 leaves room for one column, the empty one, so no 1 <= t < N exists; the decoder
    # still takes the empty union and decodes that column in every trial
    matrix = load_design([()], length=0)
    for walk in (exact_pa, is_t_disjunct):
        with pytest.raises(InputError, match="need 1 <= t < N"):
            walk(matrix, 1)
    [(_, fp, fn)] = measure._decode(matrix, [np.zeros((70, 1), dtype=np.int64)])
    assert fp.tolist() == fn.tolist() == [0] * 70


# -- counter-based randomness ----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_mix64_vector_scalar_agreement(x):
    from disjunct.rand import _mix64_np

    assert int(_mix64_np(np.array([x], dtype=np.uint64))[0]) == mix64(x)


def test_draw_block_matches_scalar_draw():
    block = draw_block(seed=42, first_trial=10, n_trials=5, slots=3)
    for t in range(5):
        for s in range(3):
            assert int(block[t, s]) == draw(42, 10 + t, s)


def test_sample_distinct_properties():
    picks = sample_distinct(seed=7, first_trial=0, n_trials=2000, count=4, population=9)
    assert picks.shape == (2000, 4)
    assert picks.min() >= 0 and picks.max() < 9
    assert all(len(set(row)) == 4 for row in picks.tolist())
    # trial indexing is absolute: regenerating a window matches the full block
    window = sample_distinct(seed=7, first_trial=500, n_trials=10, count=4, population=9)
    assert np.array_equal(window, picks[500:510])


# 2^15, 2^15 + 1, 2^31, 2^31 + 1: the edges where the decode narrows to int16, int32 and int64;
# at 2^31 + 1 only the value 2^31 overflows int32, so 2^32 checks the int64 side with half the values
@pytest.mark.parametrize(
    "count, population",
    [(1, 1), (3, 3), (4, 9), (21, 4096), (41, 32768), (50, 60),
     (50, 2**15 + 1), (17, 2**31), (33, 2**31 + 1), (50, 2**32), (50, 2**40)],
)
@pytest.mark.parametrize("first_trial", [0, 500])
def test_sample_distinct_matches_sort_oracle(monkeypatch, count, population, first_trial):
    want = sample_distinct_by_sort(11, first_trial, 3000, count, population)
    got = sample_distinct(11, first_trial, 3000, count, population)
    assert got.shape == want.shape == (3000, count)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert np.array_equal(sample_distinct_by_gaps(11, first_trial, 3000, count, population), want)
    chunks = [
        sample_distinct(11, first_trial + lo, n, count, population)
        for lo, n in [(0, 1), (1, 999), (1000, 2000)]
    ]
    assert np.array_equal(np.concatenate(chunks), want)
    for draws in SAMPLER_BLOCKS[:-1]:
        monkeypatch.setattr(errors, "BLOCK_WORDS", draws)
        n = 40 if draws == 1 else 3000  # one trial a block: a prefix of the trials
        assert np.array_equal(sample_distinct(11, first_trial, n, count, population), want[:n])


@st.composite
def _draw_shapes(draw_from):
    population = draw_from(st.one_of(
        st.integers(1, 200),
        st.sampled_from([2**15 - 1, 2**15, 2**15 + 1, 2**31 - 1, 2**31, 2**31 + 1, 2**32, 2**40]),
        st.integers(1, 2**62),
    ))
    return draw_from(st.integers(0, min(50, population))), population


@settings(max_examples=60, deadline=None)
@given(_draw_shapes(), st.integers(0, 2**40))
def test_sample_distinct_matches_both_oracles(shape, first_trial):
    # the decode against the sampler it replaced (by gaps) and the one before that (by sort)
    count, population = shape
    got = sample_distinct(5, first_trial, 97, count, population)
    assert got.shape == (97, count) and got.dtype == np.int64
    assert np.array_equal(got, sample_distinct_by_gaps(5, first_trial, 97, count, population))
    assert np.array_equal(got, sample_distinct_by_sort(5, first_trial, 97, count, population))
    assert ((0 <= got) & (got < population)).all()
    for draws in SAMPLER_BLOCKS[:-1]:
        with pytest.MonkeyPatch.context() as patch:  # no function-scoped fixture under `given`
            patch.setattr(errors, "BLOCK_WORDS", draws)
            assert np.array_equal(sample_distinct(5, first_trial, 97, count, population), got)


def test_sample_distinct_refuses_more_than_the_population():
    # a package error, so the CLI's exit-code contract covers it
    with pytest.raises(InputError, match="cannot draw 5 distinct from 4"):
        sample_distinct(0, 0, 10, 5, 4)


def test_sample_distinct_is_uniform_enough():
    # each (first-3)-subset of a 6-element population should appear ~equally
    picks = sample_distinct(seed=3, first_trial=0, n_trials=60000, count=3, population=6)
    counts = {}
    for row in picks.tolist():
        key = tuple(sorted(row))
        counts[key] = counts.get(key, 0) + 1
    expected = 60000 / 20
    assert min(counts.values()) > 0.85 * expected
    assert max(counts.values()) < 1.15 * expected


# -- Monte Carlo estimation ---------------------------------------------------------------


def test_estimate_pa_zero_case(pair_disjoint):
    report = estimate_pa(pair_disjoint, 1, 2000, seed=1)
    assert report.violations == 0 and report.p_hat == 0
    assert report.ci[0] == 0


def test_estimate_pa_covers_half_on_path_toy(toy_path):
    report = estimate_pa(toy_path, 3, 100000, seed=123)
    assert report.ci[0] <= 0.5 <= report.ci[1]


def test_estimate_pa_deterministic_across_chunking(monkeypatch, toy_path, ks83):
    # KS(8,3) at t=6 is above its guarantee t=3, so the counts compared are nonzero
    for matrix, t, trials in [(toy_path, 3, 50000), (ks83, 6, 3000)]:
        monkeypatch.setattr(measure, "PROBE_CHUNK", 1 << 15)
        a = estimate_pa(matrix, t, trials, seed=9)
        for draws in SAMPLER_BLOCKS[1:] if trials > 3000 else SAMPLER_BLOCKS:  # one-trial blocks: short run only
            monkeypatch.setattr(errors, "BLOCK_WORDS", draws)
            monkeypatch.setattr(measure, "PROBE_CHUNK", 977)
            b = estimate_pa(matrix, t, trials, seed=9)
            assert a.violations == b.violations > 0


@pytest.mark.parametrize("name,t", [("ks83", 6), ("bch5", 4), ("toy_path", 3)])
def test_estimate_pa_matches_set_replay(monkeypatch, request, name, t):
    # every t is above the matrix's disjunctness guarantee, so the violation count is nonzero
    matrix = request.getfixturevalue(name)
    trials, seed = 2000, 13
    want = probe_violations_by_sets(matrix, sample_distinct(seed, 0, trials, t + 1, matrix.num_columns))
    assert want > 0
    for draws in SAMPLER_BLOCKS:
        monkeypatch.setattr(errors, "BLOCK_WORDS", draws)
        for chunk in (1, 977, 1 << 15):
            monkeypatch.setattr(measure, "PROBE_CHUNK", chunk)
            assert estimate_pa(matrix, t, trials, seed).violations == want


def test_estimate_pa_rejects_bad_t(toy_path):
    with pytest.raises(InputError):
        estimate_pa(toy_path, 4, 10, seed=0)


def test_clopper_pearson_flag(toy_path):
    report = estimate_pa(toy_path, 3, 1000, seed=5, interval="clopper-pearson")
    assert report.interval_method == "clopper-pearson"
    assert report.ci[0] <= report.p_hat <= report.ci[1]
    with pytest.raises(InputError):
        estimate_pa(toy_path, 3, 10, seed=0, interval="bogus")


# -- intervals -------------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_interval_sanity(nk):
    n, k = nk
    for fn in (wilson_interval, clopper_pearson_interval):
        lo, hi = fn(k, n, 0.99)
        assert 0 <= lo <= k / n <= hi <= 1


@pytest.mark.parametrize("confidence", [0.0, 1.0, 2.0, -0.5, float("nan")])
def test_intervals_reject_confidence_outside_unit_interval(toy_path, confidence):
    for fn in (wilson_interval, clopper_pearson_interval):
        with pytest.raises(InputError, match="confidence must lie strictly between 0 and 1"):
            fn(3, 10, confidence)
    for sample in (estimate_pa, simulate_decoding):
        with pytest.raises(InputError, match="confidence must lie strictly between 0 and 1"):
            sample(toy_path, 1, 10, seed=0, confidence=confidence)


@pytest.mark.parametrize("n", [1, 2, 10, 2000, 10**6])
@pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99, 0.999])
def test_wilson_matches_ndtri_oracle(n, confidence):
    for k in sorted({0, 1, n // 2, n}):
        got, want = wilson_interval(k, n, confidence), wilson_interval_by_ndtri(k, n, confidence)
        assert all(abs(g - e) <= 1e-14 * abs(e) for g, e in zip(got, want)), (k, got, want)


def test_wilson_at_confidence_next_to_one():
    # 0.5 + c/2 rounds to 1.0: z would be infinite, and the interval is all of [0, 1]
    confidence = 1 - 2**-53
    for k in (0, 3, 10):
        assert wilson_interval(k, 10, confidence) == (0.0, 1.0)
    assert wilson_interval(3, 10, 1 - 2**-52)[1] < 1.0


def test_clopper_pearson_edge_cases():
    lo, hi = clopper_pearson_interval(0, 100)
    assert lo == 0 and 0 < hi < 0.1
    lo, hi = clopper_pearson_interval(100, 100)
    assert hi == 1 and 0.9 < lo < 1


# (k, n, confidence) -> (Wilson, Clopper-Pearson).  The Clopper-Pearson floats were computed
# with scipy.stats' beta.ppf, and the interval calls scipy.special's betaincinv; the Wilson
# floats are those of the stdlib's NormalDist().inv_cdf, which differs from scipy's ndtri in
# the last bit for three of these cases (checked to 1e-14 in test_wilson_matches_ndtri_oracle)
PINNED_INTERVALS = {
    (0, 10, 0.99): ((0.0, 0.39885409330490795), (0.0, 0.4112959813475253)),
    (3, 10, 0.99): ((0.07956631652306578, 0.6799753207988973), (0.03700722109623209, 0.7351139852871307)),
    (10, 10, 0.99): ((0.6011459066950919, 1.0), (0.5887040186524747, 1.0)),
    (7, 2000, 0.95): ((0.0016964316970424186, 0.007207196253241744), (0.0014083038325025414, 0.007197961714658002)),
    (1999, 2000, 0.9): ((0.9977619607513023, 0.9998884459849876), (0.9976302866323432, 0.9999743536816786)),
    (1, 1, 0.5): ((0.6873152559174167, 1.0), (0.25, 1.0)),
    (50, 100, 0.999): ((0.34371707547475705, 0.656282924525243), (0.3355819371905234, 0.664418062809478)),
}


@pytest.mark.parametrize("case", sorted(PINNED_INTERVALS))
def test_intervals_pinned(case):
    wilson, clopper = PINNED_INTERVALS[case]
    assert wilson_interval(*case) == wilson
    assert clopper_pearson_interval(*case) == clopper


# -- COMP ------------------------------------------------------------------------------------


def test_run_tests_examples(fano_matrix, pair_disjoint):
    assert not run_tests(fano_matrix, []).any()
    single = run_tests(fano_matrix, [0])
    assert list(np.flatnonzero(single)) == [0, 1, 2]
    union = run_tests(pair_disjoint, [0, 1])
    assert list(np.flatnonzero(union)) == [0, 1, 2, 3]


@pytest.mark.parametrize("name", ["fano_matrix", "ks83"])
def test_run_tests_refuses_out_of_range_defectives(request, name):
    # the union gathers clamp indices, so an unchecked -1 or N would pass silently
    matrix = request.getfixturevalue(name)
    n_cols = matrix.num_columns
    for defectives in ([-1], [n_cols], [0, n_cols]):
        with pytest.raises(InputError, match=r"outside \[0, "):
            run_tests(matrix, defectives)


def test_comp_decode_examples(fano_matrix, toy_path):
    assert comp_decode(fano_matrix, np.zeros(7, dtype=bool)) == []
    outcome = run_tests(toy_path, [1, 2])
    assert comp_decode(toy_path, outcome) == [0, 1, 2]  # superset with false positive


def test_comp_decode_exact_on_disjunct_matrix(fano_matrix):
    # 2-disjunct: every defective pair decodes exactly
    for defectives in itertools.combinations(range(7), 2):
        outcome = run_tests(fano_matrix, defectives)
        assert comp_decode(fano_matrix, outcome) == sorted(defectives)


def test_comp_decode_always_superset(ks52):
    for defectives in [(0, 3, 17, 24), (1, 2, 3, 4), (5, 9, 11, 20)]:
        outcome = run_tests(ks52, defectives)
        decoded = comp_decode(ks52, outcome)
        assert set(decoded) >= set(defectives)


def test_comp_decode_validates_input(fano_matrix):
    with pytest.raises(InputError):
        comp_decode(fano_matrix, np.zeros(6, dtype=bool))


# -- decoding simulation -----------------------------------------------------------------------


def test_simulate_decoding_zero_fp_at_guaranteed_t(fano_matrix, ks52):
    for matrix, t in [(fano_matrix, 2), (ks52, 3)]:
        report = simulate_decoding(matrix, t, 2000, seed=17)
        assert report.false_negatives == 0
        assert report.violations == 0
        assert report.false_positive_histogram == ((0, 2000),)


def test_simulate_decoding_rate_matches_exact_pa(toy_path):
    exact = exact_pa(toy_path, 3)
    report = simulate_decoding(toy_path, 3, 50000, seed=23)
    assert report.false_negatives == 0
    assert report.ci[0] <= float(exact) <= report.ci[1]


def test_simulate_decoding_deterministic_across_chunking(monkeypatch, toy_path, ks83):
    for matrix, t, trials in [(toy_path, 3, 20000), (ks83, 5, 3000)]:
        monkeypatch.setattr(measure, "CHUNK", 1 << 12)
        a = simulate_decoding(matrix, t, trials, seed=31)
        monkeypatch.setattr(measure, "CHUNK", 613)
        b = simulate_decoding(matrix, t, trials, seed=31)
        assert a.violations == b.violations > 0
        assert a.false_positive_histogram == b.false_positive_histogram


@pytest.fixture(scope="module")
def bch5():
    """Weight-5 layer of the [31,21] BCH code: N=186, 2-disjunct."""
    return fixed_weight_subcode(bch_code(5, 5), 5)


@pytest.mark.parametrize(
    "name,t",
    [("toy_path", 3), ("fano_matrix", 3), ("ks83", 5), ("bch5", 4)],
)
def test_decode_kernel_matches_per_trial_replay(monkeypatch, request, name, t):
    # every t is above the matrix's disjunctness guarantee, so false positives occur
    matrix = request.getfixturevalue(name)
    trials, seed = 700, 41
    picks = sample_distinct(seed, 0, trials, t, matrix.num_columns)
    replay_fp, replay_fn = [], []
    for row in picks.tolist():
        decoded = set(comp_decode(matrix, run_tests(matrix, row)))
        replay_fp.append(len(decoded - set(row)))
        replay_fn.append(len(set(row) - decoded))
    oracle_fp = [comp_false_positives_by_sets(matrix.columns, row) for row in picks.tolist()]
    assert replay_fp == oracle_fp and sum(oracle_fp) > 0
    assert replay_fn == [0] * trials
    # column blocks of errors.BLOCK_WORDS // words columns: one column, 7 // words (odd counts in the
    # adder tree), and the default; the chunks of one trial are run at the default only
    for block, chunks in ((1, (63, 64, 65, 613)), (7, (63, 64, 65, 613)), (errors.BLOCK_WORDS, (1, 63, 64, 65, 613))):
        monkeypatch.setattr(errors, "BLOCK_WORDS", block)
        for chunk in chunks:
            monkeypatch.setattr(measure, "CHUNK", chunk)
            parts = list(_decode_chunks(matrix, t, trials, seed))
            assert [len(p) for p, _, _ in parts] == [min(chunk, trials - lo) for lo in range(0, trials, chunk)]
            got_picks, got_fp, got_fn = (np.concatenate(col) for col in zip(*parts))
            assert np.array_equal(got_picks, picks)
            assert got_fp.tolist() == oracle_fp
            assert got_fn.tolist() == replay_fn


@pytest.mark.parametrize("n_rows", [1, 2, 3, 64, 65, 1000])
def test_column_sums_match_byte_plane_oracle(n_rows):
    # the adder tree against the eight byte-plane reductions it replaced; all ones carries into
    # the top plane, which holds bit n_rows.bit_length() - 1 of every count
    rng = np.random.default_rng(n_rows)
    for words in (1, 3):
        for rows in (rng.integers(0, 2**64, size=(n_rows, words), dtype=np.uint64),
                     np.full((n_rows, words), ~np.uint64(0))):
            planes = _column_sums(rows)
            counts = sum(np.unpackbits(p.view(np.uint8), bitorder="little").astype(np.int64) << i
                         for i, p in enumerate(planes))
            assert all(p.shape == (words,) for p in planes)
            assert np.array_equal(counts, column_counts_by_byte_planes(rows))
        assert (counts == n_rows).all()
        assert (planes[n_rows.bit_length() - 1] == ~np.uint64(0)).all()
        assert not any(p.any() for p in planes[n_rows.bit_length() :])


def test_decode_histogram_pinned_multiword():
    # KS(16,3): N=4096, 2000 trials in one chunk of 32 trial words; t=12 is above
    # its guarantee t=7; pinned from the per-trial (chunk, N, words) kernel
    report = simulate_decoding(ks_rs(16, 3), 12, 2000, seed=20177)
    assert report.false_positive_histogram == ((0, 1748), (1, 238), (2, 13), (3, 1))
    assert (report.violations, report.false_negatives) == (267, 0)


def test_decode_chunk_cap():
    # per 64 trials the decoder keeps 2 N words of decoded columns and masks and ~16 M of union
    assert _decode_chunk_size(4096, 240) == CHUNK  # KS(16,3)
    assert _decode_chunk_size(32768, 992) == 3264  # KS(32,3): 51 words of 81408
    assert _decode_chunk_size(262144, 4032) == 448  # KS(64,3)
    assert _decode_chunk_size(400, 65536) == 192  # long columns: the union dominates
    for n_cols, length in ((32769, 24), (100_000, 1000), (400, 1 << 20), (10**6, 10**4), (10**7, 1)):
        chunk = _decode_chunk_size(n_cols, length)
        assert chunk % 64 == 0 and ((2 * n_cols + 16 * length) * (chunk // 64) <= errors.SCRATCH // 8 or chunk == 64)


@pytest.mark.parametrize("trials", [0, -5])
def test_sampling_rejects_nonpositive_trials(toy_path, trials):
    for sample in (estimate_pa, simulate_decoding):
        with pytest.raises(InputError, match="trials must be >= 1"):
            sample(toy_path, 1, trials, seed=0)


def test_simulation_report_serialization(toy_path):
    report = simulate_decoding(toy_path, 3, 100, seed=1)
    payload = report.to_dict()
    assert payload["mode"] == "decoding"
    assert payload["false_negatives"] == 0
    assert isinstance(payload["false_positive_histogram"], list)
    mc = estimate_pa(toy_path, 3, 100, seed=1).to_dict()
    assert mc["mode"] == "monte_carlo"
    assert "false_negatives" not in mc
