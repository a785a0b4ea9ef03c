import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_pa, comp_false_positives_by_sets
from disjunct.codes import BinaryMatrix, bch_code, fixed_weight_subcode
from disjunct.errors import BudgetExceeded, InputError
from disjunct.instances import ks_rs
from disjunct.measure import (
    DECODE_CHUNK,
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
from disjunct.rand import draw, draw_block, mix64, sample_distinct


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


def test_nested_column_witness(toy_nested):
    ok, witness = is_t_disjunct(toy_nested, 1)
    assert not ok
    assert witness.defectives == (1,) and witness.probe == 0


def test_ks52_exactly_3_disjunct(ks52):
    ok3, _ = is_t_disjunct(ks52, 3)
    ok4, witness = is_t_disjunct(ks52, 4)
    assert ok3 and not ok4
    assert witness is not None
    union = set().union(*(ks52.columns[k] for k in witness.defectives))
    assert set(ks52.columns[witness.probe]) <= union


def test_budget_rejection(ks83):
    with pytest.raises(BudgetExceeded):
        is_t_disjunct(ks83, 3)  # C(512,3)*509 over the default budget
    with pytest.raises(BudgetExceeded):
        exact_pa(ks83, 2, max_ops=1000)


# -- exact violation probability ----------------------------------------------------------


def test_exact_pa_examples(fano_matrix, toy_nested, pair_disjoint):
    assert exact_pa(fano_matrix, 1) == 0
    assert exact_pa(toy_nested, 1) == Fraction(1, 2)
    assert exact_pa(pair_disjoint, 1) == 0


def test_exact_pa_fano_t3_brute_force(fano_matrix):
    value = exact_pa(fano_matrix, 3)
    assert value == Fraction(2, 5)
    assert value == brute_force_pa(fano_matrix, 3)


def test_exact_pa_matches_brute_force_on_toys(fano_matrix, toy_nested, ks52):
    for matrix, t in [(fano_matrix, 2), (fano_matrix, 3), (toy_nested, 1), (ks52, 3)]:
        assert exact_pa(matrix, t) == brute_force_pa(matrix, t)


def test_is_t_disjunct_iff_exact_pa_zero(fano_matrix, toy_nested, ks52):
    for matrix, t in [(fano_matrix, 2), (fano_matrix, 3), (toy_nested, 1), (ks52, 3)]:
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


@pytest.mark.parametrize("t,chunks", [(2, (1, 7)), (3, (7,)), (4, (1000,))])
def test_relaxation_invariant_to_chunking(t, chunks):
    # ks-rs-4-3 (N=64, w=3) is 1-disjunct, so every t here has a nonzero relaxation;
    # a chunk of 1 at t=4 would walk 635376 subsets one by one
    matrix = ks_rs(4, 3)
    want = pairwise_relaxation_prob(matrix, t)
    assert want > 0
    for chunk in chunks:
        assert pairwise_relaxation_prob(matrix, t, chunk=chunk) == want
    if t == 4:
        assert want == Fraction(38846, 66185) >= Fraction(3802, 13237)  # exact P_A at t=4


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


def test_estimate_pa_covers_half_on_nested_toy(toy_nested):
    report = estimate_pa(toy_nested, 1, 100000, seed=123)
    assert report.ci[0] <= 0.5 <= report.ci[1]


def test_estimate_pa_deterministic_across_chunking(toy_nested, ks83):
    # KS(8,3) at t=6 is above its guarantee t=3, so the counts compared are nonzero
    for matrix, t, trials in [(toy_nested, 1, 50000), (ks83, 6, 3000)]:
        a = estimate_pa(matrix, t, trials, seed=9, chunk=1 << 15)
        b = estimate_pa(matrix, t, trials, seed=9, chunk=977)
        assert a.violations == b.violations > 0


def test_estimate_pa_rejects_bad_t(toy_nested):
    with pytest.raises(InputError):
        estimate_pa(toy_nested, 2, 10, seed=0)


def test_clopper_pearson_flag(toy_nested):
    report = estimate_pa(toy_nested, 1, 1000, seed=5, interval="clopper-pearson")
    assert report.interval_method == "clopper-pearson"
    assert report.ci[0] <= report.p_hat <= report.ci[1]
    with pytest.raises(InputError):
        estimate_pa(toy_nested, 1, 10, seed=0, interval="bogus")


# -- intervals -------------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_interval_sanity(nk):
    n, k = nk
    for fn in (wilson_interval, clopper_pearson_interval):
        lo, hi = fn(k, n, 0.99)
        assert 0 <= lo <= k / n <= hi <= 1


@pytest.mark.parametrize("confidence", [0.0, 1.0, 2.0, -0.5, float("nan")])
def test_intervals_reject_confidence_outside_unit_interval(toy_nested, confidence):
    for fn in (wilson_interval, clopper_pearson_interval):
        with pytest.raises(InputError, match="confidence must lie strictly between 0 and 1"):
            fn(3, 10, confidence)
    for sample in (estimate_pa, simulate_decoding):
        with pytest.raises(InputError, match="confidence must lie strictly between 0 and 1"):
            sample(toy_nested, 1, 10, seed=0, confidence=confidence)


def test_clopper_pearson_edge_cases():
    lo, hi = clopper_pearson_interval(0, 100)
    assert lo == 0 and 0 < hi < 0.1
    lo, hi = clopper_pearson_interval(100, 100)
    assert hi == 1 and 0.9 < lo < 1


# -- COMP ------------------------------------------------------------------------------------


def test_run_tests_examples(fano_matrix, pair_disjoint):
    assert not run_tests(fano_matrix, []).any()
    single = run_tests(fano_matrix, [0])
    assert list(np.flatnonzero(single)) == [0, 1, 2]
    union = run_tests(pair_disjoint, [0, 1])
    assert list(np.flatnonzero(union)) == [0, 1, 2, 3]


def test_comp_decode_examples(fano_matrix, toy_nested):
    assert comp_decode(fano_matrix, np.zeros(7, dtype=bool)) == []
    outcome = run_tests(toy_nested, [1])
    assert comp_decode(toy_nested, outcome) == [0, 1]  # superset with false positive


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


def test_simulate_decoding_rate_matches_exact_pa(toy_nested):
    exact = exact_pa(toy_nested, 1)
    report = simulate_decoding(toy_nested, 1, 50000, seed=23)
    assert report.false_negatives == 0
    assert report.ci[0] <= float(exact) <= report.ci[1]


def test_simulate_decoding_deterministic_across_chunking(toy_nested, ks83):
    for matrix, t, trials in [(toy_nested, 1, 20000), (ks83, 5, 3000)]:
        a = simulate_decoding(matrix, t, trials, seed=31, chunk=1 << 12)
        b = simulate_decoding(matrix, t, trials, seed=31, chunk=613)
        assert a.violations == b.violations > 0
        assert a.false_positive_histogram == b.false_positive_histogram


@pytest.fixture(scope="module")
def ragged():
    """Ragged supports, one of them empty: COMP decodes the empty column in every trial."""
    return BinaryMatrix(length=6, columns=((), (0,), (0, 1, 2), (3, 4), (1, 3, 5), (2, 5)))


@pytest.fixture(scope="module")
def bch5():
    """Weight-5 layer of the [31,21] BCH code: N=186, 2-disjunct."""
    return fixed_weight_subcode(bch_code(5, 5), 5)


@pytest.mark.parametrize(
    "name,t",
    [("toy_nested", 1), ("ragged", 2), ("fano_matrix", 3), ("ks83", 5), ("bch5", 4)],
)
def test_decode_kernel_matches_per_trial_replay(request, name, t):
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
    for chunk in (1, 63, 64, 65, 613):
        parts = list(_decode_chunks(matrix, t, trials, seed, chunk))
        assert [len(p) for p, _, _ in parts] == [min(chunk, trials - lo) for lo in range(0, trials, chunk)]
        got_picks, got_fp, got_fn = (np.concatenate(col) for col in zip(*parts))
        assert np.array_equal(got_picks, picks)
        assert got_fp.tolist() == oracle_fp
        assert got_fn.tolist() == replay_fn


def test_decode_histogram_pinned_multiword():
    # KS(16,3): N=4096, 2000 trials in one chunk of 32 trial words; t=12 is above
    # its guarantee t=7; pinned from the per-trial (chunk, N, words) kernel
    report = simulate_decoding(ks_rs(16, 3), 12, 2000, seed=20177)
    assert report.false_positive_histogram == ((0, 1748), (1, 238), (2, 13), (3, 1))
    assert (report.violations, report.false_negatives) == (267, 0)


def test_decode_chunk_cap():
    # KS(16,3) and KS(32,3) keep the default chunk; at N=32768 its scratch is exactly 2^22 words
    assert _decode_chunk_size(DECODE_CHUNK, 4096) == DECODE_CHUNK
    assert _decode_chunk_size(DECODE_CHUNK, 32768) == DECODE_CHUNK
    assert _decode_chunk_size(DECODE_CHUNK, 262144) == 512  # KS(64,3)
    for n_cols in (32769, 100_000, 262_144, 1_000_000, 10_000_000):
        chunk = _decode_chunk_size(DECODE_CHUNK, n_cols)
        assert chunk % 64 == 0 and (2 * n_cols * (chunk // 64) <= 1 << 22 or chunk == 64)
    assert _decode_chunk_size(63, 262144) == 63
    assert _decode_chunk_size(1, 10_000_000) == 1


@pytest.mark.parametrize("trials", [0, -5])
def test_sampling_rejects_nonpositive_trials(toy_nested, trials):
    for sample in (estimate_pa, simulate_decoding):
        with pytest.raises(InputError, match="trials must be >= 1"):
            sample(toy_nested, 1, trials, seed=0)


def test_simulation_report_serialization(toy_nested):
    report = simulate_decoding(toy_nested, 1, 100, seed=1)
    payload = report.to_dict()
    assert payload["mode"] == "decoding"
    assert payload["false_negatives"] == 0
    assert isinstance(payload["false_positive_histogram"], list)
    mc = estimate_pa(toy_nested, 1, 100, seed=1).to_dict()
    assert mc["mode"] == "monte_carlo"
    assert "false_negatives" not in mc
