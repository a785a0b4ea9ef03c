"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time budget is pinned here.
"""

import time
from fractions import Fraction
from math import comb, inf

from conftest import wilson_stderr
from disjunct.bounds import (
    eps_cw,
    eps_cw_l2,
    eps_cw_l2_exact,
    eps_cw_rosenthal,
    eps_nonbinary,
    hermitian_params,
    mu_bound,
    rs_feasible,
    suzuki_params,
)
from disjunct.codes import bch_code, fixed_weight_subcode, load_design, rs_code
from disjunct.galois import Field, prime_power
from disjunct.instances import bundled, fano, ks_rs, path
from disjunct.measure import (
    disjunct_t_guarantee,
    estimate_pa,
    exact_pa,
    is_t_disjunct,
    pairwise_relaxation_prob,
    simulate_decoding,
)
from disjunct.rand import sample_distinct
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
    johnson_valency,
    krawtchouk,
)

SLACK = 1e-9


def _finish(cid: str, start: float, budget: float, detail: str = "") -> None:
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"{cid} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {cid} PASS ({elapsed:.2f}s) {detail}")


def test_c01_fano_moment_identity():
    start = time.monotonic()
    spec = cw_spectrum(fano())
    assert dual_spectrum_cw(spec).dual_distance == 3
    expected = {1: Fraction(0), 2: Fraction(24, 49)}
    for r in (1, 2):
        lhs = cw_central_moment(spec, r)
        rhs = hypergeometric_central_moment(7, 3, r)
        assert lhs == rhs == expected[r], r
    _finish("C1", start, 1.0, "fano moments r=1,2 exact; d'=3")


def test_c02_power_moments_on_rs_codes():
    start = time.monotonic()
    for q, k in ((5, 2), (7, 3)):
        code = rs_code(Field(*prime_power(q)), k)
        spec = hamming_spectrum(code)
        assert dual_spectrum_hamming(spec).dual_distance == k + 1
        for ell in range(k + 1):
            assert central_moment_hamming(spec, ell) == binomial_central_moment(
                code.n, q, ell
            ), (q, k, ell)
    _finish("C2", start, 5.0, "RS(5,2) and RS(7,3): exact equality for all ell < k+1")


def test_c03_ks_rs52_exactly_3_disjunct():
    start = time.monotonic()
    matrix = ks_rs(5, 2)
    assert disjunct_t_guarantee(matrix.weight, matrix.min_distance()) == 3
    ok3, _ = is_t_disjunct(matrix, 3)
    ok4, _ = is_t_disjunct(matrix, 4)
    assert ok3 and not ok4
    _finish("C3", start, 1.0, "3-disjunct exhaustively; not 4-disjunct")


def _applicable_epsilons(matrix, t, qary_code=None) -> list[float]:
    """Bound values whose preconditions hold and whose ell sits below measured d'."""
    out = []
    dual_cw = dual_spectrum_cw(cw_spectrum(matrix)).dual_distance
    dmax = matrix.weight + 1 if dual_cw == inf else int(dual_cw)
    for ell in range(2, dmax, 2):
        for rep in (
            eps_cw(matrix.length, matrix.weight, t, ell, dmax),
            eps_cw_rosenthal(matrix.length, matrix.weight, t, ell, dmax),
        ):
            if rep.ok:
                out.append(rep.epsilon)
    if dual_cw > 2:
        rep = eps_cw_l2(matrix.length, matrix.weight, t, dmax)
        if rep.ok:
            out.append(rep.epsilon)
    if qary_code is not None:
        dual_q = dual_spectrum_hamming(hamming_spectrum(qary_code)).dual_distance
        for ell in range(2, int(dual_q), 2):
            rep = eps_nonbinary(qary_code.q, qary_code.n, t, ell, int(dual_q))
            if rep.ok:
                out.append(rep.epsilon)
    return out


def test_c04_bound_dominance_chain():
    start = time.monotonic()
    rs52 = rs_code(Field(5, 1), 2)
    rs83 = rs_code(Field(2, 3), 3)
    cases = [
        ("fano", fano(), None, (1, 2, 3)),
        ("disjoint-pair", bundled()["disjoint-pair"], None, (1,)),
        ("ks-rs-5-2", ks_rs(5, 2), rs52, (1, 2, 3)),
        ("ks-rs-8-3", ks_rs(8, 3), rs83, (2,)),
    ]
    checked_bounds = 0
    for name, matrix, qary, ts in cases:
        for t in ts:
            pa = exact_pa(matrix, t)
            relax = pairwise_relaxation_prob(matrix, t)
            assert pa <= relax, (name, t)
            for eps in _applicable_epsilons(matrix, t, qary):
                assert float(relax) <= eps + SLACK, (name, t, eps)
                checked_bounds += 1
    assert checked_bounds > 0
    _finish("C4", start, 60.0, f"exact <= relaxation <= {checked_bounds} bound values")


def test_c05_monte_carlo_calibration():
    start = time.monotonic()
    toy = path()
    assert exact_pa(toy, 3) == Fraction(1, 2)
    covered_toy = sum(
        1
        for seed in range(100)
        if (lambda r: r.ci[0] <= 0.5 <= r.ci[1])(estimate_pa(toy, 3, 100000, seed))
    )
    matrix = ks_rs(8, 3)
    exact83 = exact_pa(matrix, 2)
    assert exact83 == 0
    covered_83 = sum(
        1
        for seed in range(100)
        if (lambda r: r.ci[0] <= float(exact83) <= r.ci[1])(
            estimate_pa(matrix, 2, 100000, seed)
        )
    )
    assert covered_toy >= 95, covered_toy
    assert covered_83 >= 95, covered_83
    _finish("C5", start, 120.0, f"coverage {covered_toy}/100 (toy), {covered_83}/100 (KS-RS)")


def test_c06_spectral_algebra():
    start = time.monotonic()
    for q in (2, 3, 4):
        for n in range(1, 25):
            kraw = [[krawtchouk(q, n, j, i) for i in range(n + 1)] for j in range(n + 1)]
            weights = [comb(n, i) * (q - 1) ** i for i in range(n + 1)]
            for j in range(n + 1):
                for k in range(j, n + 1):
                    total = sum(weights[i] * kraw[j][i] * kraw[k][i] for i in range(n + 1))
                    expected = q**n * comb(n, j) * (q - 1) ** j if j == k else 0
                    assert total == expected, (q, n, j, k)
    for m_len in range(2, 25):
        for w in range(1, min(12, m_len // 2) + 1):
            ebl = [[eberlein(m_len, w, k, i) for i in range(w + 1)] for k in range(w + 1)]
            hn = [[hahn(m_len, w, k, i) for i in range(w + 1)] for k in range(w + 1)]
            for i in range(w + 1):
                for j in range(w + 1):
                    total = sum(ebl[k][j] * hn[i][k] for k in range(w + 1))
                    assert total == (comb(m_len, w) if i == j else 0), (m_len, w, i, j)
            for k in range(w + 1):
                assert ebl[k][0] == johnson_valency(m_len, w, k)
            for i in range(w + 1):
                closed = (m_len - 1) * (1 - Fraction(m_len * i, w * (m_len - w)))
                assert hn[1][i] == closed
    _finish("C6", start, 10.0, "Krawtchouk + Hahn/Eberlein identities exact")


def test_c07_binomial_moment_bound_grid():
    start = time.monotonic()
    cells = 0
    for n in range(5, 51):
        for p100 in range(55, 100, 5):
            p = Fraction(p100, 100)
            for r in range(1, 7):
                res = mu_bound(n, p, r)
                assert res.holds, (n, p100, r)
                if res.simplified_applies:
                    assert Fraction(res.exact) <= Fraction(res.simplified), (n, p100, r)
                cells += 1
    assert cells == 46 * 9 * 6
    _finish("C7", start, 10.0, f"{cells} grid cells, bound >= exact everywhere")


def test_c08_parameter_table_reproduction():
    start = time.monotonic()
    herm = hermitian_params(3, 9)
    assert herm.m_tests == 243 and herm.dprime_lb == 5
    suz = suzuki_params(1, 32)
    assert suz.m_tests == 512 and suz.dprime_lb == 6
    probes = [(64, 2, 4, True), (26, 2, 4, False), (27, 2, 4, True)]
    for q, t, ell, expected in probes:
        assert rs_feasible(q, t, ell) is expected, (q, t, ell)
    _finish("C8", start, 5.0, "hermitian/suzuki tables and RS feasibility probes")


def test_c09_comp_soundness():
    start = time.monotonic()
    guaranteed = {
        "fano": 2,
        "disjoint-pair": 1,
        "ks-rs-5-2": 3,
        "ks-rs-8-3": 3,
    }
    trial_t = dict(guaranteed, path=3)
    for name, matrix in bundled().items():
        t = trial_t[name]
        report = simulate_decoding(matrix, t, 10000, seed=20177)
        assert report.false_negatives == 0, name
        if name in guaranteed:
            assert report.violations == 0, name
    _finish("C9", start, 120.0, "false negatives 0 everywhere; 0 FP at guaranteed t")


def test_c10_bch_constant_weight_pipeline():
    # The delta=5 layer is the weight-5 layer of the [31,21,5] code (m=5), not
    # the weight-3 layer of the [63,51] code (m=6): every delta=5 BCH code has
    # minimum distance >= 5 (x^3 + y^3 + (x+y)^3 = xy(x+y) != 0 for distinct
    # nonzero x, y), so no weight-3 layer exists, and the m=6 weight-5 layer has
    # dual distance 2.  For odd m, Assmus-Mattson makes the weight-5 words of
    # the [31,21] code a 2-(31,5,4) design, so the second-moment bound applies.
    start = time.monotonic()
    parity = bch_code(5, 5)
    table = fixed_weight_subcode(parity, 5)
    assert table.num_columns == 186  # A_5 of the [31,21,5] code
    dual = dual_spectrum_cw(cw_spectrum(table)).dual_distance
    assert dual == 3
    assert disjunct_t_guarantee(5, table.min_distance()) == 2
    for t in (2, 3, 4):
        report = simulate_decoding(table, t, 10000, seed=20177)
        assert report.false_negatives == 0
        if t == 2:
            assert report.violations == 0
        else:
            # Above the disjunctness guarantee, so the bound is checked
            # against a nonzero rate rather than as 0 <= eps.
            assert report.violations > 0, t
        bound = float(eps_cw_l2_exact(31, 5, t))
        se = wilson_stderr(report.violations, report.per_item_denominator)
        assert report.p_hat <= bound + 3 * se, (t, report.p_hat, bound)
    _finish("C10", start, 300.0, "BCH [31,21] weight-5 pipeline at delta=5")


def test_c10_supplementary_pipeline_demonstrations():
    """The same pipeline on the two m=6 layers next to C10's m=5 layer.

    The [63,57] delta=3 / w=3 table is a strength-2 design, so the
    second-moment bound applies and is asserted.  The [63,51] delta=5 / w=5
    table has dual distance 2 (asserted; the reason C10 runs at m=5), so no
    bound applies there and its rates (and a random-matrix baseline) are
    reported without assertion.
    """
    start = time.monotonic()
    table = fixed_weight_subcode(bch_code(6, 3), 3)
    assert table.num_columns == 651
    dual = dual_spectrum_cw(cw_spectrum(table)).dual_distance
    assert dual == 3
    for t in (2, 3):
        report = simulate_decoding(table, t, 10000, seed=20177)
        assert report.false_negatives == 0
        bound = float(eps_cw_l2_exact(63, 3, t))
        se = wilson_stderr(report.violations, report.per_item_denominator)
        assert report.p_hat <= bound + 3 * se, (t, report.p_hat, bound)
        print(
            f"report: BCH [63,57] w=3 t={t}: per-item fp rate {report.p_hat:.3g} "
            f"<= second-moment bound {bound:.3g}"
        )

    big = fixed_weight_subcode(bch_code(6, 5), 5)
    n_cols = big.num_columns
    assert n_cols == 1890
    dual5 = dual_spectrum_cw(cw_spectrum(big)).dual_distance
    assert dual5 == 2
    rng_cols = _random_constant_weight(63, 5, n_cols, seed=424242)
    for t in (2, 3):
        bch_rep = simulate_decoding(big, t, 10000, seed=20177)
        rnd_rep = simulate_decoding(rng_cols, t, 10000, seed=20177)
        assert bch_rep.false_negatives == 0 and rnd_rep.false_negatives == 0
        print(
            f"report: M=63 w=5 N={n_cols} t={t} (dual distance {dual5}): "
            f"BCH fp rate {bch_rep.p_hat:.3g} vs random-matrix fp rate {rnd_rep.p_hat:.3g}"
        )
    _finish("C10-supplementary", start, 300.0, "delta=3 pipeline asserted; w=5 reported")


def _random_constant_weight(length: int, w: int, n_cols: int, seed: int):
    cols = []
    seen = set()
    trial = 0
    while len(cols) < n_cols:
        supp = tuple(sorted(int(v) for v in sample_distinct(seed, trial, 1, w, length)[0]))
        trial += 1
        if supp not in seen:
            seen.add(supp)
            cols.append(supp)
    return load_design(sorted(cols), length=length)
