"""Ground-truth disjunctness: exact enumeration, Monte Carlo, COMP decoding.

Every quantity here counts one event: supp(a_j) is covered by a union U
of defective supports iff (packed_j & ~U) == 0 on the bit-packed columns.
`_union` builds U and `_covered` tests the event; t-disjunctness, the exact
and Monte Carlo violation counts and the per-trial reference decoder
(`run_tests` + `comp_decode`) all use that pair.  Decoding simulation
(`_decode_chunks`) is bitsliced over trials instead: one uint64 word holds
64 trials, each test row gets a mask of the trials in which it is
positive, and a column is decoded in a trial iff the AND of the masks over
its support rows is set there, so a chunk costs N*w word operations per
64 trials.  Exhaustive enumerators walk t-subsets in colexicographic order
(documented so returned witnesses are deterministic); Monte Carlo draws are
counter-based per trial (see rand.py) so violation counts do not depend on
chunking or parallel schedule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

import numpy as np
from scipy.stats import beta as _beta
from scipy.stats import norm as _norm

from .codes import BinaryMatrix, ConstantWeightCode, pack_bits, support_steps
from .errors import BudgetExceeded, InputError
from .rand import sample_distinct

MAX_SUPPORT_OPS = 10**8
DEFAULT_CONFIDENCE = 0.99
DECODE_CHUNK = 1 << 12


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
    """Wilson score interval for k successes out of n."""
    _check_interval(k, n, confidence)
    z = float(_norm.ppf(0.5 + confidence / 2))
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * float(np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))) / denom
    lo = 0.0 if k == 0 else max(0.0, float(center - half))
    hi = 1.0 if k == n else min(1.0, float(center + half))
    return (lo, hi)


def wilson_stderr(k: int, n: int) -> float:
    """Smoothed standard error sqrt(p~(1-p~)/n), p~ = (k+1)/(n+2); nonzero at k = 0."""
    p = (k + 1) / (n + 2)
    return float(np.sqrt(p * (1 - p) / n))


def clopper_pearson_interval(
    k: int, n: int, confidence: float = DEFAULT_CONFIDENCE
) -> tuple[float, float]:
    """Exact (conservative) binomial interval; useful for tiny violation counts."""
    _check_interval(k, n, confidence)
    alpha = 1 - confidence
    lo = 0.0 if k == 0 else float(_beta.ppf(alpha / 2, k, n - k + 1))
    hi = 1.0 if k == n else float(_beta.ppf(1 - alpha / 2, k + 1, n - k))
    return (lo, hi)


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A disjunctness violation: supp(probe) is covered by the union over defectives."""

    defectives: tuple[int, ...]
    probe: int


@dataclass(frozen=True)
class SimulationReport:
    """Result of a Monte Carlo or exact disjunctness / decoding run."""

    mode: str  # "exact" | "monte_carlo" | "decoding"
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


def _colex_subsets(n: int, t: int) -> Iterator[tuple[int, ...]]:
    """t-subsets of range(n) in colexicographic order (sorted by largest element)."""
    for top in range(t - 1, n):
        for rest in itertools.combinations(range(top), t - 1):
            yield rest + (top,)


def _subset_chunks(n: int, t: int, chunk: int) -> Iterator[np.ndarray]:
    gen = _colex_subsets(n, t)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(gen, chunk)), dtype=np.int64
        )
        if flat.size == 0:
            return
        yield flat.reshape(-1, t)


def _check_t(n_cols: int, t: int, trials: int = 1) -> None:
    """Shared argument check: 1 <= t < N, and at least one trial for the samplers."""
    if not 1 <= t < n_cols:
        raise InputError(f"need 1 <= t < N, got t={t}, N={n_cols}")
    if trials < 1:
        raise InputError("trials must be >= 1")


def _check_budget(n_cols: int, t: int, max_ops: int) -> int:
    _check_t(n_cols, t)
    work = comb(n_cols, t) * (n_cols - t)
    if work > max_ops:
        raise BudgetExceeded(
            f"C({n_cols},{t})*(N-t) = {work} support operations exceed budget {max_ops}"
        )
    return work


def _fit_chunk(requested: int, n_cols: int, words: int) -> int:
    # cap scratch arrays near 32 MiB of uint64
    return max(1, min(requested, (1 << 22) // max(1, n_cols * words)))


def _union(packed: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(rows, words) OR of the packed columns named in each row of `idx`."""
    union = np.zeros((len(idx), packed.shape[1]), dtype=packed.dtype)
    for c in range(idx.shape[1]):
        union |= packed[idx[:, c]]
    return union


def _covered(cols: np.ndarray, union: np.ndarray) -> np.ndarray:
    """True where a packed support lies inside the union; broadcasts over leading axes."""
    return ~np.bitwise_or.reduce(cols & ~union, axis=-1).astype(bool)


def is_t_disjunct(
    matrix: BinaryMatrix, t: int, *, max_ops: int = MAX_SUPPORT_OPS, chunk: int = 1 << 14
) -> tuple[bool, Witness | None]:
    """Exhaustively test t-disjunctness; on failure return the first witness.

    The witness is deterministic: subsets are scanned in colex order and the
    probe is the smallest violating column for that subset.
    """
    _check_budget(matrix.num_columns, t, max_ops)
    packed = matrix.packed
    chunk = _fit_chunk(chunk, matrix.num_columns, packed.shape[1])
    for idx in _subset_chunks(matrix.num_columns, t, chunk):
        covered = _covered(packed, _union(packed, idx)[:, None])
        np.put_along_axis(covered, idx, False, axis=1)
        if covered.any():
            row = int(np.flatnonzero(covered.any(axis=1))[0])
            probe = int(np.flatnonzero(covered[row])[0])
            return False, Witness(tuple(int(v) for v in idx[row]), probe)
    return True, None


def exact_pa(matrix: BinaryMatrix, t: int, *, max_ops: int = MAX_SUPPORT_OPS,
             chunk: int = 1 << 14) -> Fraction:
    """Exact violation probability over all (t-subset, outside column) pairs."""
    n_cols = matrix.num_columns
    _check_budget(n_cols, t, max_ops)
    packed = matrix.packed
    chunk = _fit_chunk(chunk, n_cols, packed.shape[1])
    violations = 0
    n_subsets = 0
    for idx in _subset_chunks(n_cols, t, chunk):
        covered = _covered(packed, _union(packed, idx)[:, None])
        # columns in the subset are covered by their own union; exclude them
        violations += int(covered.sum()) - int(np.take_along_axis(covered, idx, axis=1).sum())
        n_subsets += len(idx)
    assert n_subsets == comb(n_cols, t)
    return Fraction(violations, comb(n_cols, t) * (n_cols - t))


def pairwise_relaxation_prob(
    matrix: ConstantWeightCode, t: int, *, max_ops: int = MAX_SUPPORT_OPS,
    chunk: int = 1 << 14
) -> Fraction:
    """Probability that sum of pairwise overlaps with the probe reaches w.

    This upper-bounds exact_pa: a covered support forces
    w <= sum_{k in I} |supp(a_j) & supp(a_k)|.  Only pairwise intersection
    sizes enter, so this is the spectrum-level relaxation of the exact test.
    """
    n_cols = matrix.num_columns
    _check_budget(n_cols, t, max_ops)
    packed = matrix.packed
    chunk = _fit_chunk(chunk, n_cols, 1)  # `sums` is (chunk, N) int64
    inter = np.zeros((n_cols, n_cols), dtype=np.int32)
    for j in range(n_cols):
        inter[j] = np.bitwise_count(packed & packed[j]).sum(axis=1, dtype=np.int64)
    hits = 0
    n_subsets = 0
    for idx in _subset_chunks(n_cols, t, chunk):
        sums = inter[idx[:, 0]].astype(np.int64)
        for c in range(1, t):
            sums += inter[idx[:, c]]
        over = sums >= matrix.weight
        hits += int(over.sum()) - int(np.take_along_axis(over, idx, axis=1).sum())
        n_subsets += len(idx)
    assert n_subsets == comb(n_cols, t)
    return Fraction(hits, comb(n_cols, t) * (n_cols - t))


def estimate_pa(
    matrix: BinaryMatrix,
    t: int,
    trials: int,
    seed: int,
    *,
    confidence: float = DEFAULT_CONFIDENCE,
    interval: str = "wilson",
    chunk: int = 1 << 15,
) -> SimulationReport:
    """Monte Carlo estimate of the disjunctness violation probability.

    Each trial draws t+1 distinct column indices with counter-based
    randomness: the first t form the defective set, the last is the probe.
    Results are identical for any chunk size.
    """
    n_cols = matrix.num_columns
    _check_t(n_cols, t, trials)
    _check_confidence(confidence)  # before the trials, not after them
    if interval not in ("wilson", "clopper-pearson"):
        raise InputError(f"unknown interval method {interval!r}")
    packed = matrix.packed
    violations = 0
    for lo in range(0, trials, chunk):
        picks = sample_distinct(seed, lo, min(chunk, trials - lo), t + 1, n_cols)
        violations += int(_covered(packed[picks[:, t]], _union(packed, picks[:, :t])).sum())
    p_hat = violations / trials
    ci = (
        wilson_interval(violations, trials, confidence)
        if interval == "wilson"
        else clopper_pearson_interval(violations, trials, confidence)
    )
    return SimulationReport(
        mode="monte_carlo",
        t=t,
        trials=trials,
        violations=violations,
        p_hat=p_hat,
        ci=ci,
        confidence=confidence,
        seed=seed,
        interval_method=interval,
    )


# -- COMP decoding ----------------------------------------------------------------


def run_tests(matrix: BinaryMatrix, defectives: Sequence[int]) -> np.ndarray:
    """Boolean outcome per test row: positive iff the row hits a defective column."""
    idx = np.asarray(defectives, dtype=np.int64).reshape(1, -1)
    bad = idx[(idx < 0) | (idx >= matrix.num_columns)]
    if bad.size:
        raise InputError(f"defective index {bad[0]} outside [0, {matrix.num_columns})")
    union = _union(matrix.packed, idx)[0]
    return np.unpackbits(union.view(np.uint8), count=matrix.length, bitorder="little").astype(bool)


def comp_decode(matrix: BinaryMatrix, outcomes: np.ndarray) -> list[int]:
    """Columns whose support avoids every negative test (candidate defectives)."""
    outcomes = np.asarray(outcomes, dtype=bool)
    if outcomes.shape != (matrix.length,):
        raise InputError(f"outcome vector must have length {matrix.length}")
    keep = _covered(matrix.packed, pack_bits(outcomes))
    return [int(j) for j in np.flatnonzero(keep)]


def _comp_counts(
    matrix: BinaryMatrix, steps: list[tuple[np.ndarray | None, np.ndarray]], picks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bitsliced COMP on one chunk: (decoded columns, decoded defectives) per trial.

    Bit tau of word b in `pos[r]` (and `decoded[j]`) is trial 64*b + tau of
    the chunk.  Column j is decoded in a trial iff every test row of its
    support is positive there, so `decoded` is the AND of the row masks
    over each support and an empty support stays decoded in every trial.
    Scratch is two arrays of N * ceil(chunk / 64) words.
    """
    bits = np.unpackbits(
        _union(matrix.packed, picks).view(np.uint8), axis=1, count=matrix.length,
        bitorder="little",
    )
    pos = pack_bits(bits.T)
    decoded = np.full((matrix.num_columns, pos.shape[1]), ~np.uint64(0), dtype=pos.dtype)
    scratch = np.empty_like(decoded)
    for rows, points in steps:
        masks = scratch[: len(points)]
        np.take(pos, points, axis=0, out=masks, mode="clip")  # in range; "clip" writes `out` unbuffered
        if rows is None:
            decoded &= masks
        else:
            decoded[rows] &= masks
    # popcount down the columns, one bit plane of each byte at a time:
    # byte i of a row holds trials 8*i .. 8*i + 7, low bit first
    plane = scratch.view(np.uint8)
    counts = np.empty((plane.shape[1], 8), dtype=np.int64)
    for k in range(8):
        np.right_shift(decoded.view(np.uint8), k, out=plane)
        plane &= 1
        counts[:, k] = np.add.reduce(plane, axis=0, dtype=np.int64)
    trial = np.arange(len(picks))
    own = decoded[picks, (trial >> 6)[:, None]] >> (trial & 63).astype(np.uint64)[:, None]
    return counts.reshape(-1)[: len(picks)], (own & np.uint64(1)).sum(axis=1, dtype=np.int64)


def _decode_chunk_size(requested: int, n_cols: int) -> int:
    """Trials per decode chunk: `requested`, unless the two N * ceil(chunk / 64)-word
    scratch arrays would pass `_fit_chunk`'s cap; then the most whole 64-trial words
    that fit it (at least one)."""
    return min(requested, 64 * _fit_chunk(-(-requested // 64), n_cols, 2))


def _decode_chunks(
    matrix: BinaryMatrix, t: int, trials: int, seed: int, chunk: int = DECODE_CHUNK
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """COMP over trials [0, trials) in chunks: (picks, false positives, false negatives) per trial."""
    _check_t(matrix.num_columns, t, trials)
    chunk = _decode_chunk_size(chunk, matrix.num_columns)
    # a step that every column takes part in ANDs in place instead of through a row index
    steps = [
        (None if len(rows) == matrix.num_columns else rows, points)
        for rows, points in support_steps(matrix.columns)
    ]
    for lo in range(0, trials, chunk):
        picks = sample_distinct(seed, lo, min(chunk, trials - lo), t, matrix.num_columns)
        decoded, members = _comp_counts(matrix, steps, picks)
        yield picks, decoded - members, t - members


def simulate_decoding(
    matrix: BinaryMatrix,
    t: int,
    trials: int,
    seed: int,
    *,
    confidence: float = DEFAULT_CONFIDENCE,
    chunk: int = DECODE_CHUNK,
) -> SimulationReport:
    """Random defective sets through COMP; aggregates false-positive statistics.

    Per trial: uniform t-subset of defectives, outcome vector, COMP decode.
    False negatives are counted (and are structurally zero for COMP); the
    per-item false-positive rate is pooled over trials * (N - t) probes and
    reported with its Wilson interval.
    """
    _check_confidence(confidence)
    fp_hist: dict[int, int] = {}
    fp_total = 0
    fn_total = 0
    for _, fp_counts, fn_counts in _decode_chunks(matrix, t, trials, seed, chunk):
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
