"""Ground-truth disjunctness: exact enumeration, Monte Carlo, COMP decoding.

Every quantity here counts one event: supp(a_j) is covered by a union U
of defective supports, which is exactly when COMP decodes j.  One decoder,
bitsliced over trials (`_decode`), counts it for t-disjunctness, exact
violations and decoding simulation: a uint64 word holds 64 trials, and a
column is decoded in a trial iff the AND of its support rows' masks of
positive trials is set there.  It walks the columns in cache-sized blocks,
gathering the masks by the rows of the matrix's points
(`ConstantWeightCode.points`), and counts each block's decoded columns per
trial with a bitsliced adder tree (`_column_sums`).  The exhaustive walks
feed it each chunk of t-subsets as a block of trials, in colex order
(`codes.colex_chunks`), so witnesses are deterministic.  `_union` and
`_covered` test (packed_j & ~U) == 0 one trial at a time: the Monte Carlo
probe, a witness's probe and the reference decoder (`run_tests` +
`comp_decode`).
Exact P_A has a second route that enumerates no t-subsets: inclusion-exclusion
over each probe's points gives one integer histogram for every t
(`_cover_counts`), from a single probe on a linear Kautz-Singleton image.
`exact_pa` takes whichever route is less work, held to the operations budget
(`errors.check_budget`); `is_t_disjunct` answers True from P_A = 0 and walks
only when P_A > 0, for the colex-first witness.
The pairwise relaxation enumerates nothing: it counts t-sets over the
overlap classes of each distinct column profile (`ConstantWeightCode.overlap_profiles`).
Monte Carlo draws are counter-based per trial (see rand.py) so violation
counts do not depend on chunking, the sampler's blocks or parallel schedule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from statistics import NormalDist
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import errors
from .codes import ConstantWeightCode, colex_chunks, pack_bits
from .errors import InputError, check_budget
from .rand import sample_distinct

DEFAULT_CONFIDENCE = 0.99
CHUNK = 1 << 12  # trials or t-subsets per decoder chunk, before `_decode_chunk_size`
PROBE_CHUNK = 1 << 15  # trials per chunk of `estimate_pa`
Trials = Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]  # chunks of (defectives, FP, FN) per trial


# -- intervals ---------------------------------------------------------------


def _check_confidence(confidence: float) -> None:
    if not 0 < confidence < 1:
        raise InputError(f"confidence must lie strictly between 0 and 1, got {confidence}")


def _check_interval(k: int, n: int, confidence: float) -> None:
    """Shared argument check of the intervals: 0 <= k <= n, n >= 1 and 0 < confidence < 1."""
    if not 0 <= k <= n or n < 1:
        raise InputError(f"bad counts k={k}, n={n}")
    _check_confidence(confidence)


def wilson_interval(k: int, n: int, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
    """Wilson score interval for k successes out of n; z from the stdlib's normal quantile."""
    _check_interval(k, n, confidence)
    tail = 0.5 + confidence / 2
    if tail == 1.0:  # confidence within 2^-53 of 1: z would be infinite, the interval all of [0, 1]
        return (0.0, 1.0)
    z = NormalDist().inv_cdf(tail)
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * float(np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))) / denom
    lo = 0.0 if k == 0 else max(0.0, float(center - half))
    hi = 1.0 if k == n else min(1.0, float(center + half))
    return (lo, hi)


def clopper_pearson_interval(
    k: int, n: int, confidence: float = DEFAULT_CONFIDENCE
) -> tuple[float, float]:
    """Exact (conservative) binomial interval; useful for tiny violation counts."""
    from scipy.special import betaincinv  # here, not at import: scipy costs ~0.35 s at start-up
    _check_interval(k, n, confidence)
    alpha = 1 - confidence
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return (lo, hi)


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A disjunctness violation: supp(probe) is covered by the union over defectives."""

    defectives: tuple[int, ...]
    probe: int


@dataclass(frozen=True)
class SimulationReport:
    """Result of a Monte Carlo disjunctness probe or a COMP decoding run."""

    mode: str  # "monte_carlo" | "decoding"; `simulate --exact` reports a plain dict
    t: int
    trials: int
    violations: int
    p_hat: float
    ci: tuple[float, float]
    confidence: float
    seed: int | None
    interval_method: str = "wilson"
    false_negatives: int | None = None
    false_positive_histogram: tuple[tuple[int, int], ...] | None = None
    mean_false_positives: float | None = None
    per_item_denominator: int | None = None

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "t": self.t,
            "trials": self.trials,
            "violations": self.violations,
            "p_hat": self.p_hat,
            "ci": list(self.ci),
            "confidence": self.confidence,
            "seed": self.seed,
            "interval_method": self.interval_method,
        }
        if self.mode == "decoding":
            out.update(
                false_negatives=self.false_negatives,
                false_positive_histogram=[list(x) for x in self.false_positive_histogram],
                mean_false_positives=self.mean_false_positives,
                per_item_denominator=self.per_item_denominator,
            )
        return out


# -- t-disjunctness ------------------------------------------------------------


def disjunct_t_guarantee(w: int, d: int) -> int | None:
    """floor((w-1)/(w-d/2)) from the pairwise-intersection argument.

    Returns None ("unbounded") when w - d/2 <= 0: supports are pairwise
    disjoint and no union of other columns ever covers a column.
    """
    if d % 2 or not 0 < d <= 2 * w:
        raise InputError(f"constant-weight distance d={d} must be even in (0, {2 * w}]")
    overlap = w - d // 2
    if overlap <= 0:
        return None
    return (w - 1) // overlap


def _check_t(n_cols: int, t: int, trials: int = 1) -> None:
    """Shared argument check: 1 <= t < N, and at least one trial for the samplers."""
    if not 1 <= t < n_cols:
        raise InputError(f"need 1 <= t < N, got t={t}, N={n_cols}")
    if trials < 1:
        raise InputError("trials must be >= 1")


def _union(packed: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(rows, words) OR of the packed columns named in each row of `idx`.

    Every caller's indices lie in [0, N): `run_tests` checks its defectives first, sampled and
    colex picks are in range by construction, and a witness's defectives come from the walk.
    So the gathers take mode="clip", which writes `out` unbuffered ("raise" buffers it).
    """
    union = np.zeros((len(idx), packed.shape[1]), dtype=packed.dtype)
    rows = np.empty_like(union)
    for c in range(idx.shape[1]):
        np.take(packed, idx[:, c], axis=0, out=rows, mode="clip")
        union |= rows
    return union


def _covered(cols: np.ndarray, union: np.ndarray) -> np.ndarray:
    """True where a packed support lies inside the union; broadcasts over leading axes."""
    return ~np.bitwise_or.reduce(cols & ~union, axis=-1).astype(bool)


def _walk(matrix: ConstantWeightCode, t: int) -> Trials:
    """Every t-subset through the decoder, a colex chunk per block of trials, after the
    walk's checks: 1 <= t < N and its C(N,t)*(N-t) pairs under the operations budget."""
    n_cols = matrix.num_columns
    _check_t(n_cols, t)
    check_budget(comb(n_cols, t) * (n_cols - t), f"walk over C({n_cols},{t})*(N-t) (subset, probe) pairs")
    return _decode(matrix, colex_chunks(n_cols, t, _decode_chunk_size(n_cols, matrix.length)))


def _cover_counts(matrix: ConstantWeightCode, probes: Sequence[int]) -> np.ndarray:
    """c[a] = sum over the probes j and the subsets S of supp j of (-1)^|S| [a_S = a], where a_S
    counts the columns b != j that miss every point of S.  By inclusion-exclusion, sum_a c[a] C(a, t)
    is the number of (t-set of other columns, probe) pairs whose union covers the probe, at every t.

    Per probe, T_b = supp b & supp j is a w-bit mask (bit i: the i-th point of supp j).  g starts
    as the bincount of T_b over b != j, columns that miss supp j at 0, and w subset-sum passes make
    g[U] the number of b with T_b inside U, so a_S = g[full ^ S] = g[::-1][S].  The columns that
    meet a probe come from one point -> columns index over the entries at the probes' points only;
    entry i of the flat (w, N) points belongs to column i % N.
    """
    n_cols, w, flat = matrix.num_columns, matrix.weight, matrix.points.ravel()
    parity = np.bitwise_count(np.arange(1 << w)) & 1
    at = np.flatnonzero(np.isin(flat, matrix.points[:, probes]))
    at = at[np.argsort(flat[at], kind="stable")]
    owner = at % n_cols  # point p: owner[start[p] : start[p + 1]]
    start = np.searchsorted(flat[at], np.arange(matrix.length + 1))
    counts = np.zeros(2 * n_cols, dtype=np.int64)  # (a, parity of |S|) pairs
    for j in probes:
        points = matrix.points[:, j]
        cols = np.concatenate([owner[start[p] : start[p + 1]] for p in points.tolist()] or [owner[:0]])
        bit = np.repeat(1 << np.arange(w), start[points + 1] - start[points])
        other = cols != j
        meet, inv = np.unique(cols[other], return_inverse=True)
        g = np.bincount(np.bincount(inv, weights=bit[other]).astype(np.int64), minlength=1 << w)
        g[0] += n_cols - 1 - len(meet)
        for i in range(w):
            halves = g.reshape(-1, 2, 1 << i)
            halves[:, 1] += halves[:, 0]
        counts += np.bincount(2 * g[::-1] + parity[: 1 << w], minlength=2 * n_cols)
    signed = counts.reshape(n_cols, 2)
    return signed[:, 0] - signed[:, 1]


def _counted_cover(matrix: ConstantWeightCode, t: int) -> int | None:
    """The covered (t-set, probe) pairs, sum_a c[a] C(a, t) from `_cover_counts`, when the counts
    are less work than the walk; else None, and `_walk` holds itself to the operations budget.
    BudgetExceeded when the counts are the cheaper route and over it.  Checks 1 <= t < N first.

    The walk costs C(N,t)*(N-t) support operations; the counts cost w*2^w plus the index entries
    read per probe computed, and are offered only while their int64 table of 2^w entries fits
    `errors.SCRATCH`.  A linear Kautz-Singleton image (its `linear_ks_counts`) has a translation
    taking any column to any other, so every probe has the same counts: probe 0, read by one pass
    over the N*w points, times N.
    """
    n_cols, w = matrix.num_columns, matrix.weight
    _check_t(n_cols, t)
    walk = comb(n_cols, t) * (n_cols - t)
    if 8 << w > errors.SCRATCH:
        return None
    degree = np.bincount(matrix.points.ravel(), minlength=matrix.length)
    probes, work = range(n_cols), n_cols * (w << w) + int(degree @ degree)
    one = (w << w) + matrix.points.size
    if one < min(walk, work) and matrix.linear_ks_counts is not None:
        probes, work = [0], one
    if work >= walk:
        return None
    check_budget(work, f"inclusion-exclusion over {len(probes)} probe(s), w*2^w + index entries per probe")
    counts = _cover_counts(matrix, probes)
    covered = sum(int(counts[a]) * comb(int(a), t) for a in np.flatnonzero(counts))
    return covered * (n_cols // len(probes))


def is_t_disjunct(matrix: ConstantWeightCode, t: int) -> tuple[bool, Witness | None]:
    """Test t-disjunctness; on failure return the first witness.

    P_A = 0 from the inclusion-exclusion counts answers True without a walk when they are the
    cheaper route (see `exact_pa`).  Otherwise the walk decides, under the same budget, and
    the witness is deterministic: subsets are scanned in colex order and the probe is the
    smallest violating column for that subset.
    """
    if _counted_cover(matrix, t) == 0:
        return True, None
    for idx, covered, _ in _walk(matrix, t):
        hit = np.flatnonzero(covered)
        if hit.size:
            defectives = idx[hit[0]]
            probes = _covered(matrix.packed, _union(matrix.packed, defectives[None]))
            probes[defectives] = False
            return False, Witness(tuple(int(v) for v in defectives), int(np.flatnonzero(probes)[0]))
    return True, None


def exact_pa(matrix: ConstantWeightCode, t: int) -> Fraction:
    """Exact violation probability over all (t-subset, outside column) pairs.

    Two routes, whichever is less work (`_counted_cover`): the decoder walk over the C(N,t)*(N-t)
    pairs, or inclusion-exclusion over each probe's points (`_cover_counts`).  The operations
    budget bounds the cheaper of the two.
    """
    n_cols = matrix.num_columns
    violations = _counted_cover(matrix, t)
    if violations is None:
        violations = sum(int(covered.sum()) for _, covered, _ in _walk(matrix, t))
    return Fraction(violations, comb(n_cols, t) * (n_cols - t))


def pairwise_relaxation_prob(matrix: ConstantWeightCode, t: int) -> Fraction:
    """Probability that sum of pairwise overlaps with the probe reaches w.

    This upper-bounds exact_pa: a covered support forces
    w <= sum_{k in I} |supp(a_j) & supp(a_k)|.  Only pairwise intersection
    sizes enter, so this is the spectrum-level relaxation of the exact test.

    A probe's profile h sorts the other columns by their overlap s with it; class w holds the probe
    alone, as columns are distinct.  It counts the complement: `below` maps (c, v) to the c-sets
    from the classes 0 < s < w whose overlaps sum to v < w, class 0 fills a set last, in
    C(h_0, t - c) ways, and the rest of the C(N-1, t) sets reach w.  Columns of one profile count alike.
    """
    n_cols, w = matrix.num_columns, matrix.weight
    _check_t(n_cols, t)
    profiles, multiplicities = matrix.overlap_profiles
    hits = 0
    for h, columns in zip(profiles.tolist(), multiplicities.tolist()):
        below = {(0, 0): 1}
        for s in range(1, w):
            if h[s]:
                picks = [comb(h[s], j) for j in range(min(h[s], t, (w - 1) // s) + 1)]
                grown = Counter()
                for (c, v), x in below.items():
                    for j in range(min(len(picks), t - c + 1, (w - 1 - v) // s + 1)):
                        grown[c + j, v + j * s] += x * picks[j]
                below = grown
        hits += columns * (comb(n_cols - 1, t) - sum(x * comb(h[0], t - c) for (c, _), x in below.items()))
    return Fraction(hits, comb(n_cols, t) * (n_cols - t))


def estimate_pa(
    matrix: ConstantWeightCode,
    t: int,
    trials: int,
    seed: int,
    *,
    confidence: float = DEFAULT_CONFIDENCE,
    interval: str = "wilson",
) -> SimulationReport:
    """Monte Carlo estimate of the disjunctness violation probability.

    Each trial draws t+1 distinct column indices with counter-based
    randomness: the first t form the defective set, the last is the probe.
    Results are identical for any PROBE_CHUNK.
    """
    n_cols = matrix.num_columns
    _check_t(n_cols, t, trials)
    _check_confidence(confidence)  # before the trials, not after them
    if interval not in ("wilson", "clopper-pearson"):
        raise InputError(f"unknown interval method {interval!r}")
    packed = matrix.packed
    violations = 0
    for lo in range(0, trials, PROBE_CHUNK):
        picks = sample_distinct(seed, lo, min(PROBE_CHUNK, trials - lo), t + 1, n_cols)
        probe = np.take(packed, picks[:, t], axis=0, mode="clip")  # in range, as in `_union`
        violations += int(_covered(probe, _union(packed, picks[:, :t])).sum())
        del picks, probe  # or the next chunk's draws are made while these are still held
    interval_fn = wilson_interval if interval == "wilson" else clopper_pearson_interval
    return SimulationReport(
        mode="monte_carlo",
        t=t,
        trials=trials,
        violations=violations,
        p_hat=violations / trials,
        ci=interval_fn(violations, trials, confidence),
        confidence=confidence,
        seed=seed,
        interval_method=interval,
    )


# -- COMP decoding ----------------------------------------------------------------


def run_tests(matrix: ConstantWeightCode, defectives: Sequence[int]) -> np.ndarray:
    """Boolean outcome per test row: positive iff the row hits a defective column."""
    idx = np.asarray(defectives, dtype=np.int64).reshape(1, -1)
    bad = idx[(idx < 0) | (idx >= matrix.num_columns)]
    if bad.size:
        raise InputError(f"defective index {bad[0]} outside [0, {matrix.num_columns})")
    union = _union(matrix.packed, idx)[0]
    return np.unpackbits(union.view(np.uint8), count=matrix.length, bitorder="little").astype(bool)


def comp_decode(matrix: ConstantWeightCode, outcomes: np.ndarray) -> list[int]:
    """Columns whose support avoids every negative test (candidate defectives)."""
    outcomes = np.asarray(outcomes, dtype=bool)
    if outcomes.shape != (matrix.length,):
        raise InputError(f"outcome vector must have length {matrix.length}")
    keep = _covered(matrix.packed, pack_bits(outcomes))
    return [int(j) for j in np.flatnonzero(keep)]


def _add_counters(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    """The bit planes of a + b, for bitsliced counters a and b given as their planes, low bit
    first, len(a) >= len(b): a ripple-carry add, one plane longer than a."""
    out, carry = [a[0] ^ b[0]], a[0] & b[0]
    for i, x in enumerate(a[1:], 1):
        if i < len(b):
            half = x ^ b[i]
            out.append(half ^ carry)
            carry &= half
            carry |= x & b[i]
        else:
            out.append(x ^ carry)
            carry &= x
    out.append(carry)
    return out


def _column_sums(rows: np.ndarray) -> list[np.ndarray]:
    """Bit planes, low bit first, of the bitwise column sums of (R, W) uint64 `rows`, R >= 1:
    bit b of word k of plane i is bit i of the number of rows with bit b of word k set.

    An adder tree: each level adds the top half of the counters to the bottom half, plane by
    plane, so the row count halves and the counters grow by one plane; the row left over by an
    odd count is added to the rest on the side.
    """
    planes, rest = [rows], None
    while len(planes[0]) > 1:
        half = len(planes[0]) // 2
        if len(planes[0]) % 2:
            odd = [p[2 * half] for p in planes]
            rest = odd if rest is None else _add_counters(odd, rest)
        planes = _add_counters([p[:half] for p in planes], [p[half : 2 * half] for p in planes])
    top = [p[0] for p in planes]
    return top if rest is None else _add_counters(top, rest)


def _comp_counts(matrix: ConstantWeightCode, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bitsliced COMP on one chunk: (decoded columns, decoded defectives) per trial.

    Bit tau of word b in `pos[r]` (and `decoded[j]`) is trial 64*b + tau of
    the chunk.  Column j is decoded in a trial iff every test row of its
    support is positive there, so `decoded` is the AND of the row masks
    over each support.  The union is transposed as (M/8, trials) bytes
    before it is unpacked.  An empty support, of weight 0, is decoded in
    every trial.

    The columns go through in blocks of about `errors.BLOCK_WORDS` words: each block
    takes its AND steps, one gather of `pos` rows per row of `matrix.points`,
    and then its bitsliced column sums (`_column_sums`) while it is in cache.  Scratch
    per 64 trials: N words for `decoded` and under 16 M for the union on
    its way to `pos`, and about 3 `errors.BLOCK_WORDS` in all for the block's masks
    and adder tree (`_decode_chunk_size`).
    """
    union = _union(matrix.packed, picks).view(np.uint8)[:, : -(-matrix.length // 8)]
    bits = np.unpackbits(np.ascontiguousarray(union.T)[:, None], axis=1, bitorder="little")
    words = -(-len(picks) // 64)
    pos = pack_bits(bits.reshape(-1, len(picks))[: matrix.length].view(bool))
    del union, bits
    points, n_cols = matrix.points, matrix.num_columns
    decoded = np.empty((n_cols, words), dtype=np.uint64)
    size = max(1, errors.BLOCK_WORDS // words)  # columns per block
    masks = np.empty((min(size, n_cols), words), dtype=np.uint64)
    counts = np.zeros(64 * words, dtype=np.int64)
    for lo in range(0, n_cols, size):
        block = decoded[lo : lo + size]
        if len(points):  # the points are in range, as in `_union`; "clip" writes `out` unbuffered
            np.take(pos, points[0, lo : lo + size], axis=0, out=block, mode="clip")
        else:  # weight 0: one column at most, as columns are distinct
            block.fill(~np.uint64(0))
        for row in points[1:]:
            np.take(pos, row[lo : lo + size], axis=0, out=masks[: len(block)], mode="clip")
            block &= masks[: len(block)]
        for i, plane in enumerate(_column_sums(block)):
            counts += np.unpackbits(plane.view(np.uint8), bitorder="little").astype(np.int64) << i
    trial = np.arange(len(picks))
    own = decoded[picks, (trial >> 6)[:, None]] >> (trial & 63).astype(np.uint64)[:, None]
    return counts[: len(picks)], (own & np.uint64(1)).sum(axis=1, dtype=np.int64)


def _decode_chunk_size(n_cols: int, length: int) -> int:
    """Trials per decoder chunk: CHUNK, or the most whole 64-trial words (at least one)
    that keep the scratch of `_comp_counts` within `errors.SCRATCH`, at 2 N + 16 M words per 64
    trials: N for the decoded columns, under 16 M for the union on its way to `pos`, and N more
    for the column blocks, which take about 3 `errors.BLOCK_WORDS` at a time."""
    return min(CHUNK, 64 * max(1, errors.SCRATCH // (8 * (2 * n_cols + 16 * length))))


def _decode(matrix: ConstantWeightCode, blocks: Iterable[np.ndarray]) -> Trials:
    """COMP on each block of defective sets, one trial per row."""
    for picks in blocks:
        decoded, members = _comp_counts(matrix, picks)
        yield picks, decoded - members, picks.shape[1] - members


def _decode_chunks(matrix: ConstantWeightCode, t: int, trials: int, seed: int) -> Trials:
    """COMP over the counter-based draws of trials [0, trials), in chunks."""
    n_cols = matrix.num_columns
    _check_t(n_cols, t, trials)
    chunk = _decode_chunk_size(n_cols, matrix.length)
    draws = (sample_distinct(seed, lo, min(chunk, trials - lo), t, n_cols)
             for lo in range(0, trials, chunk))
    return _decode(matrix, draws)


def simulate_decoding(
    matrix: ConstantWeightCode,
    t: int,
    trials: int,
    seed: int,
    *,
    confidence: float = DEFAULT_CONFIDENCE,
) -> SimulationReport:
    """Random defective sets through COMP; aggregates false-positive statistics.

    Per trial: uniform t-subset of defectives, outcome vector, COMP decode.
    False negatives are counted (and are structurally zero for COMP); the
    per-item false-positive rate is pooled over trials * (N - t) probes and
    reported with its Wilson interval.
    """
    _check_confidence(confidence)
    return _decoding_report(matrix, t, trials, seed, confidence, _decode_chunks(matrix, t, trials, seed))


def _decoding_report(
    matrix: ConstantWeightCode, t: int, trials: int, seed: int, confidence: float, chunks: Trials
) -> SimulationReport:
    """The false-positive statistics of `simulate_decoding` over one pass of decoder chunks."""
    fp_hist: dict[int, int] = {}
    fp_total = 0
    fn_total = 0
    for _, fp_counts, fn_counts in chunks:
        for v, c in zip(*np.unique(fp_counts, return_counts=True)):
            fp_hist[int(v)] = fp_hist.get(int(v), 0) + int(c)
        fp_total += int(fp_counts.sum())
        fn_total += int(fn_counts.sum())
    denom = trials * (matrix.num_columns - t)
    ci = wilson_interval(fp_total, denom, confidence)
    return SimulationReport(
        mode="decoding",
        t=t,
        trials=trials,
        violations=fp_total,
        p_hat=fp_total / denom,
        ci=ci,
        confidence=confidence,
        seed=seed,
        false_negatives=fn_total,
        false_positive_histogram=tuple(sorted(fp_hist.items())),
        mean_false_positives=fp_total / trials,
        per_item_denominator=denom,
    )
