"""Shared fixtures and independent oracles for the test suite.

Oracles here recompute expected values through a different path than the
library (set algebra instead of bit-packing, dense mod-2 matmul instead of
syndrome words, explicit dual-code enumeration instead of transforms) so
the two sides stay independent.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from disjunct.codes import ConstantWeightCode, QaryCode, load_design
from disjunct.errors import InputError
from disjunct.galois import Field, check_order, prime_power
from disjunct.instances import disjoint_pair, fano, ks_rs, path
from disjunct.rand import _draw_into


@pytest.fixture(scope="session")
def fano_matrix():
    return fano()


@pytest.fixture(scope="session")
def toy_path():
    return path()


@pytest.fixture(scope="session")
def pair_disjoint():
    return disjoint_pair()


@pytest.fixture(scope="session")
def ks52():
    return ks_rs(5, 2)


@pytest.fixture(scope="session")
def ks83():
    return ks_rs(8, 3)


# -- independent oracles -------------------------------------------------------


def brute_force_pa(matrix: ConstantWeightCode, t: int) -> Fraction:
    """Set-algebra recount of the exact violation probability.

    Every column of a subset lies in the subset's union, so the outside
    columns covered are all covered columns but t; the count is cached per union.
    """
    cols = [frozenset(s) for s in matrix.columns]
    n = len(cols)

    @functools.cache
    def covered(union: frozenset) -> int:
        return sum(c <= union for c in cols)

    hits = 0
    for subset in itertools.combinations(range(n), t):
        hits += covered(frozenset().union(*(cols[k] for k in subset))) - t
    return Fraction(hits, comb(n, t) * (n - t))


def covered_pairs_by_sets(matrix: ConstantWeightCode, t: int, probes) -> int:
    """The (t-subset, probe) pairs, over the given probes outside the subset, whose union
    covers the probe: `brute_force_pa`'s count, before its division, for some probes only."""
    cols = [frozenset(s) for s in matrix.columns]
    hits = 0
    for subset in itertools.combinations(range(len(cols)), t):
        union = frozenset().union(*(cols[k] for k in subset))
        hits += sum(cols[p] <= union for p in probes if p not in subset)
    return hits


def relaxation_by_sets(matrix: ConstantWeightCode, t: int) -> Fraction:
    """The enumerator `measure.pairwise_relaxation_prob` had before it counted over overlap
    classes: every (t-subset, outside probe) pair whose overlaps |a_j & a_k|, taken from
    Python sets, sum to at least w = the largest support."""
    cols = [set(s) for s in matrix.columns]
    n, w = len(cols), max(map(len, cols))
    inter = np.array([[len(a & b) for b in cols] for a in cols], dtype=np.int64)
    hits = 0
    for idx in index_chunks(itertools.combinations(range(n), t), t, 1 << 12):
        over = inter[idx].sum(axis=1) >= w  # (subsets, probes)
        hits += int(over.sum()) - int(np.take_along_axis(over, idx, axis=1).sum())
    return Fraction(hits, comb(n, t) * (n - t))


def relaxation_by_capped_ways(matrix: ConstantWeightCode, t: int) -> Fraction:
    """The dynamic program `measure.pairwise_relaxation_prob` had before it counted the complement:
    ways[c][v] counts the c-sets from every class s = 1..w whose overlaps sum to v, capped at w,
    and class 0 fills a set last.  Its work grows as w^2 t^2 per profile."""
    n_cols, w = matrix.num_columns, matrix.weight
    profiles, multiplicities = matrix.overlap_profiles
    hits = 0
    for h, columns in zip(profiles.tolist(), multiplicities.tolist()):
        h[w] -= 1  # the probe itself
        ways = [[1] + [0] * w] + [[0] * (w + 1) for _ in range(t)]
        for s in range(1, w + 1):
            grown = [row[:] for row in ways]  # none of class s taken
            for c, row in enumerate(ways[:t]):
                for v, x in enumerate(row):
                    for j in range(1, min(h[s], t - c) + 1):
                        grown[c + j][min(v + j * s, w)] += x * comb(h[s], j)
            ways = grown
        hits += columns * sum(ways[c][w] * comb(h[0], t - c) for c in range(t + 1))
    return Fraction(hits, comb(n_cols, t) * (n_cols - t))


def index_chunks(tuples: Iterator[tuple[int, ...]], width: int, size: int) -> Iterator[np.ndarray]:
    """The index tuples, all of length `width`, as consecutive (<= size, width) int64 arrays."""
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(tuples, size)), np.int64)
        if flat.size == 0:
            return
        yield flat.reshape(-1, width)


def _colex_subsets(n: int, t: int) -> Iterator[tuple[int, ...]]:
    """t-subsets of range(n) in colexicographic order (sorted by largest element)."""
    for top in range(t - 1, n):
        for rest in itertools.combinations(range(top), t - 1):
            yield rest + (top,)


# `index_chunks` and `_colex_subsets` are the tuple walk `codes.colex_chunks` replaced.
# That walk sorted by the largest element only, and lexicographically within it, so
# for 3 <= t < n - 1 it is not colex order: (0, 3, 4) came before (1, 2, 4).


def colex_subsets(n: int, t: int) -> Iterator[tuple[int, ...]]:
    """t-subsets of range(n) in colex order: by largest point, then the rest in colex order."""
    if t == 0:
        yield ()
        return
    for top in range(t - 1, n):
        for rest in colex_subsets(top, t - 1):
            yield rest + (top,)


def first_witness_by_sets(matrix: ConstantWeightCode, t: int) -> tuple[tuple[int, ...], int] | None:
    """The first (t-subset, covered outside column) in colex order, the probe smallest, by set algebra."""
    cols = [set(s) for s in matrix.columns]
    for subset in colex_subsets(len(cols), t):
        union = set().union(*(cols[k] for k in subset))
        probe = next((j for j, c in enumerate(cols) if j not in subset and c <= union), None)
        if probe is not None:
            return subset, probe
    return None


def fixed_weight_supports_by_lex(code, w: int) -> np.ndarray:
    """The (N, w) zero-syndrome supports in lexicographic order, from the walk
    `codes.fixed_weight_subcode` had before `codes.colex_chunks`."""
    kept = [np.empty((0, w), dtype=np.int64)]
    for idx in index_chunks(itertools.combinations(range(code.n), w), w, 1 << 15):
        syn = code.column_syndromes[idx[:, 0]].copy()
        for c in range(1, w):
            syn ^= code.column_syndromes[idx[:, c]]
        kept.append(idx[~syn.any(axis=1)])
    return np.concatenate(kept)


def write_code(path: str, code: QaryCode) -> None:
    """The code file `textio.read_code` reads: header 'q n N', then one row of alphabet indices a line."""
    lines = [f"{code.q} {code.n} {code.size}"]
    lines.extend(" ".join(str(int(v)) for v in row) for row in code.words)
    with open(path, "w") as out:
        out.write("\n".join(lines) + "\n")


def mix64(x: int) -> int:
    """The splitmix64 finalizer on a Python int, one 64-bit step at a time (`rand._mix64_np` on arrays)."""
    mask = (1 << 64) - 1
    x &= mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def draw(seed: int, trial: int, slot: int) -> int:
    """The (trial, slot) counter value for this seed, mix(mix(seed ^ (trial+1)*C1) ^ (slot+1)*C2),
    one Python int at a time (`draw_block` on arrays)."""
    mask = (1 << 64) - 1
    base = mix64(seed ^ ((trial + 1) * 0x9E3779B97F4A7C15) & mask)
    return mix64(base ^ ((slot + 1) * 0xC2B2AE3D27D4EB4F) & mask)


def matrix_text_by_join(matrix: ConstantWeightCode) -> str:
    """The canonical matrix text as `codes.matrix_text` built it before `textio.matrix_bytes`: one
    `str` per point, joined per line.  It names the points with `str` itself instead of a list
    of all M names, so a matrix of many rows and few points stays cheap."""
    rows = (" ".join(map(str, column)) for column in matrix.columns)
    lines = [f"{matrix.length} {matrix.num_columns} {matrix.weight}", *rows]
    return "\n".join(lines) + "\n"


def matrix_bytes_by_digits(matrix: ConstantWeightCode) -> Iterator[bytes]:
    """The canonical text as `textio.matrix_bytes` rendered it before its 3-digit table: each point a
    (width + 1)-byte record of its digits, one place a pass, zero bytes above its leading digit,
    then its separator; the zero bytes dropped."""
    w, n_cols = matrix.weight, matrix.num_columns
    yield f"{matrix.length} {n_cols} {w}\n".encode()
    if w == 0:
        yield b"\n" * n_cols
        return
    width = len(str(max(matrix.length - 1, 0)))
    rest = matrix.points.T.ravel()
    records = np.empty((len(rest), width + 1), dtype=np.uint8)
    records[:, -1] = np.tile(np.array([*b" " * (w - 1), *b"\n"], dtype=np.uint8), n_cols)
    for c in range(width - 1, -1, -1):
        higher = rest // 10
        digit = rest - 10 * higher + ord("0")
        if c < width - 1:
            digit *= rest > 0
        records[:, c] = digit
        rest = higher
    flat = records.reshape(-1)
    yield flat[flat != 0].tobytes()


def packed_by_rows(matrix: ConstantWeightCode) -> np.ndarray:
    """`packed` as it was filled before its blocked bincount: one row of `points` at a time, each an
    or-assignment that writes no word twice, as a row holds one point per column."""
    out = np.zeros((matrix.num_columns, max(1, -(-matrix.length // 64))), dtype=np.uint64)
    cols = np.arange(matrix.num_columns)
    for i in matrix.points:
        out[cols, i >> 6] |= np.left_shift(np.uint64(1), (i & 63).astype(np.uint64))
    return out


def _data_lines_by_str(path) -> Iterator[str]:
    """The stripped lines of the decoded file that are neither blank nor comments, as `str.splitlines`
    splits them: the line source of the readers before their byte tokenizer."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file ({exc.reason})") from exc
    lines = map(str.strip, text.splitlines())
    return (ln for ln in lines if ln and not ln.startswith("#"))


def _int_rows_by_loadtxt(path, lines: Iterator[str], count: int, width: int) -> np.ndarray:
    first = next(lines, None)
    try:
        rows = np.empty((0, width), dtype=np.int64) if first is None else np.loadtxt(
            itertools.chain([first], lines), dtype=np.int64, ndmin=2, comments=None)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if len(rows) != count:
        raise InputError(f"{path}: header says N={count}, found {len(rows)} rows")
    if rows.shape[1] != width:
        raise InputError(f"{path}: expected {width} integers a row, found {rows.shape[1]}")
    return rows


def read_matrix_by_loadtxt(path) -> ConstantWeightCode:
    """`textio.read_matrix` before its byte tokenizer: decoded lines, parsed by `np.loadtxt`."""
    lines = _data_lines_by_str(path)
    header = next(lines, None)
    if header is None:
        raise InputError(f"{path}: empty matrix file")
    try:
        m, n_cols, w = (int(t) for t in header.split())
    except ValueError as exc:
        raise InputError(f"{path}: bad header {header!r}") from exc
    if min(m, n_cols, w) < 0:
        raise InputError(f"{path}: bad header {header!r}")
    if w == 0:
        if next(lines, None) is not None:
            raise InputError(f"{path}: a weight-0 matrix has no points")
        return ConstantWeightCode(m, np.empty((0, n_cols), dtype=np.int32))
    return ConstantWeightCode(m, _int_rows_by_loadtxt(path, lines, n_cols, w).T)


def read_design_by_loadtxt(path) -> ConstantWeightCode:
    """`textio.read_design` before its byte tokenizer: `np.loadtxt` rows, each block sorted by `load_design`."""
    lines = list(_data_lines_by_str(path))
    tokens = lines[0].split() if lines else []
    if len(tokens) == 3 and all(t.isdigit() for t in tokens):
        m, n_cols, w = map(int, tokens)
        if w == 0 and len(lines) == 1:  # a weight-0 header: its empty supports are the dropped blank lines
            if n_cols > 1:
                raise InputError("columns 0 and 1 are equal")
            return load_design([()] * n_cols, length=m)
        width = len(lines[1].split()) if len(lines) > 1 else w
        rest = _int_rows_by_loadtxt(path, iter(lines[1:]), len(lines) - 1, width)
        if n_cols == len(rest) and rest.shape[1] == w and (rest < m).all():
            # no block names no weight: a header of N = 0 keeps its w
            return load_design(rest, length=m) if n_cols else ConstantWeightCode(m, np.empty((w, 0), dtype=np.int64))
    return load_design(_int_rows_by_loadtxt(path, iter(lines), len(lines), len(tokens)))


def read_code_by_loadtxt(path) -> QaryCode:
    """`textio.read_code` before its byte tokenizer."""
    lines = _data_lines_by_str(path)
    header = next(lines, None)
    if header is None:
        raise InputError(f"{path}: empty code file")
    try:
        q, n, n_words = (int(t) for t in header.split())
    except ValueError as exc:
        raise InputError(f"{path}: bad header {header!r}") from exc
    check_order(q)
    pm = prime_power(q)
    if pm is None:
        raise InputError(f"{path}: alphabet size {q} is not a prime power")
    if n < 1:
        raise InputError(f"{path}: code length n={n} must be >= 1")
    return QaryCode(Field(*pm), n, _int_rows_by_loadtxt(path, lines, n_words, n))


def draw_block(seed: int, first_trial: int, n_trials: int, slots: int) -> np.ndarray:
    """(n_trials, slots) uint64 counter values, row t for trial first_trial + t: the transpose of
    the contiguous (slots, n_trials) block that `rand._draw_into` fills, one row a slot."""
    x = np.empty((slots, n_trials), dtype=np.uint64)
    return _draw_into(seed, first_trial, x, np.empty_like(x)).T


def sample_distinct_by_sort(
    seed: int, first_trial: int, n_trials: int, count: int, population: int
) -> np.ndarray:
    """The re-sort sampler `rand.sample_distinct` replaced: for each slot it
    sorts the chosen prefix and shifts the draw past each chosen value."""
    if count > population:
        raise ValueError(f"cannot draw {count} distinct from {population}")
    raw = draw_block(seed, first_trial, n_trials, count)
    picked = np.empty((n_trials, count), dtype=np.int64)
    for s in range(count):
        r = (raw[:, s] % np.uint64(population - s)).astype(np.int64)
        if s:
            prev = np.sort(picked[:, :s], axis=1)
            for c in range(s):
                r += r >= prev[:, c]
        picked[:, s] = r
    return picked


def sample_distinct_by_gaps(
    seed: int, first_trial: int, n_trials: int, count: int, population: int
) -> np.ndarray:
    """The gap sampler that the right-to-left decode of `rand.sample_distinct` replaced.

    No sorted prefix is kept.  Each trial holds the multiset `gap`, whose
    entry for the i-th smallest chosen value c is c - i, the number of
    unchosen values below c; it works unsorted.  Draw r lands on
    r + s - #{gap > r}, then every gap above r loses one and r joins.  A
    call is `count` passes of one compare, one sum and one subtract over
    the (s, n_trials) block of gaps, slot-major so each pass is contiguous;
    the result is a transposed view of that layout.
    """
    if count > population:
        raise ValueError(f"cannot draw {count} distinct from {population}")
    gap = draw_block(seed, first_trial, n_trials, count)
    gap %= np.arange(population, population - count, -1, dtype=np.uint64)
    # row s holds draw r, which is also the gap of the value r lands on; rebinding
    # `gap` frees the draws before `picked` is allocated, one (trials, count) block less
    gap = np.ascontiguousarray(gap.T, dtype=np.int64)
    picked = np.empty((count, n_trials), dtype=np.int64)
    for s in range(count):
        r = gap[s]
        above = gap[:s] > r
        picked[s] = r + s - above.sum(axis=0)
        gap[:s] -= above
    return picked.T


def probe_violations_by_sets(matrix: ConstantWeightCode, picks: np.ndarray) -> int:
    """Trials whose last pick's support lies inside the union of the other picks' supports."""
    columns = matrix.columns
    return sum(
        set(columns[row[-1]]) <= set().union(*(columns[d] for d in row[:-1])) for row in picks.tolist()
    )


def bch_check_by_int64(m: int, delta: int) -> np.ndarray:
    """The (delta-1)*m by n check matrix of `codes.bch_code` as it was built before the uint8 bit
    planes: every row block's m binary components of alpha^(i*j) at once, as int64."""
    n = 2**m - 1
    fld = Field(2, m)
    powers = fld.pow(fld.generator, np.arange(1, delta)[:, None] * np.arange(n))
    rows = (powers[:, None, :] >> np.arange(m)[:, None]) & 1
    return rows.reshape(-1, n)


def cw_counts_by_broadcast(packed: np.ndarray, w: int) -> tuple[int, ...]:
    """The pair count `spectra.cw_spectrum` had before `codes.intersection_counts`:
    counts[w - s] ordered pairs of packed columns share s points (s <= w)."""
    n_cols = len(packed)
    counts = np.zeros(w + 1, dtype=np.int64)
    chunk = max(1, (1 << 23) // max(1, n_cols))
    for lo in range(0, n_cols, chunk):
        inter = np.bitwise_count(packed[lo : lo + chunk, None, :] & packed[None, :, :])
        i = w - inter.sum(axis=2, dtype=np.int64)
        counts += np.bincount(i.ravel(), minlength=w + 1)
    return tuple(int(c) for c in counts)


def profiles_by_columns(matrix: ConstantWeightCode) -> np.ndarray:
    """Row a: how many columns share s points with column a, by one popcount pass per column."""
    packed, w = matrix.packed, matrix.weight
    rows = [np.bincount(np.bitwise_count(packed & col).sum(axis=1), minlength=w + 1) for col in packed]
    return np.array(rows, dtype=np.int64).reshape(-1, w + 1)


def min_distance_by_columns(code) -> int | None:
    """The per-column loop `ConstantWeightCode.min_distance` had before `codes.intersection_counts`."""
    if code.num_columns < 2:
        return None
    packed = code.packed
    best = 0
    for j in range(code.num_columns):
        inter = np.bitwise_count(packed & packed[j]).sum(axis=1).astype(np.int64)
        inter[j] = -1
        best = max(best, int(inter.max()))
    return 2 * (code.weight - best)


def mds_weight_distribution(q: int, n: int, k: int) -> list[int]:
    """A_i of an [n, k, n-k+1] MDS code over GF(q), by the closed form (MacWilliams-Sloane 11.6)."""
    d = n - k + 1
    return [1] + [0] * (d - 1) + [
        comb(n, i) * sum((-1) ** j * comb(i, j) * (q ** (i - d + 1 - j) - 1) for j in range(i - d + 1))
        for i in range(d, n + 1)
    ]


def column_counts_by_byte_planes(decoded: np.ndarray) -> np.ndarray:
    """The per-bit count of set bits down the rows of an (N, W) uint64 array, 64 W counts with bit
    b of word k at 64 k + b: the eight byte-plane reductions that `measure._column_sums` replaced.
    Byte i of a row holds bits 8 i .. 8 i + 7, low bit first; plane k sums bit k of every byte."""
    plane = np.empty_like(decoded.view(np.uint8))
    counts = np.empty((plane.shape[1], 8), dtype=np.int64)
    for k in range(8):
        np.right_shift(decoded.view(np.uint8), k, out=plane)
        plane &= 1
        counts[:, k] = np.add.reduce(plane, axis=0, dtype=np.int64)
    return counts.reshape(-1)


def comp_false_positives_by_sets(columns, defectives) -> int:
    """COMP by set algebra: columns whose support lies in the defectives' union, minus the defectives."""
    union = set().union(*(columns[k] for k in defectives))
    return sum(1 for j, supp in enumerate(columns) if j not in defectives and set(supp) <= union)


def supports_valid(length: int, supports, weight: int | None = None) -> bool:
    """Tuple-by-tuple check of a matrix's supports: each in range, sorted and
    duplicate-free, no column repeated, and every support of size `weight` if given."""
    seen = set()
    for supp in map(tuple, supports):
        if any(not 0 <= i < length for i in supp) or list(supp) != sorted(set(supp)):
            return False
        if supp in seen or (weight is not None and len(supp) != weight):
            return False
        seen.add(supp)
    return True


def brute_force_min_distance(words: np.ndarray) -> int:
    best = words.shape[1] + 1
    for a, b in itertools.combinations(range(len(words)), 2):
        best = min(best, int((words[a] != words[b]).sum()))
    return best


def dense_syndrome_supports(check: np.ndarray, w: int) -> set[tuple[int, ...]]:
    """All weight-w supports with zero syndrome, via dense mod-2 matmul."""
    n = check.shape[1]
    out = set()
    for supp in itertools.combinations(range(n), w):
        v = np.zeros(n, dtype=np.int64)
        v[list(supp)] = 1
        if not ((check @ v) % 2).any():
            out.add(supp)
    return out


def gf2_rank_dense(matrix: np.ndarray) -> int:
    """Row-reduction rank over GF(2), dense numpy arithmetic."""
    a = (np.array(matrix, dtype=np.int64) % 2).copy()
    rank = 0
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i, c]), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def qary_dual_weight_distribution(fld: Field, k: int) -> list[int]:
    """Weight distribution of the dual of the dimension-k evaluation code.

    The dual basis comes from Gaussian elimination on the Vandermonde
    generator; the span is enumerated with vectorized table arithmetic.
    """
    q = fld.q
    n = q - 1
    pts = list(range(1, q))
    gen = [[fld.pow(x, j) for x in pts] for j in range(k)]
    rows = [list(r) for r in gen]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, k) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = fld.inv(rows[r][c])
        rows[r] = [fld.mul(inv, v) for v in rows[r]]
        for i in range(k):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [fld.sub(a, fld.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == k:
            break
    assert len(pivots) == k
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = fld.neg(rows[ri][fc])
        basis.append(v)

    idx = np.arange(q)
    add = fld.add(idx[:, None], idx)
    mul = fld.mul(idx[:, None], idx)
    words = np.zeros((1, n), dtype=np.int32)
    for bv in basis:
        bv = np.array(bv, dtype=np.int32)
        scaled = mul[np.arange(q, dtype=np.int32)[:, None], bv[None, :]]
        words = add[words[:, None, :], scaled[None, :, :]].reshape(-1, n)
    return [int(c) for c in np.bincount((words != 0).sum(axis=1), minlength=n + 1)]


def wilson_interval_by_ndtri(k: int, n: int, confidence: float) -> tuple[float, float]:
    """The Wilson interval `measure.wilson_interval` had before it took z from the stdlib:
    z from scipy.special's ndtri (Cephes), the rest of the arithmetic the same."""
    from scipy.special import ndtri

    z = float(ndtri(0.5 + confidence / 2))
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * float(np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))) / denom
    lo = 0.0 if k == 0 else max(0.0, float(center - half))
    hi = 1.0 if k == n else min(1.0, float(center + half))
    return (lo, hi)


def check_cor_conditions(m_len: int, w: int, t: int, ell: int) -> dict[str, bool]:
    """The strict feasibility conditions under which the Rosenthal bound decays in ell."""
    log_ell = math.log(ell) if ell > 1 else float("nan")
    return {
        "w > 2*ell^2/log(ell)": ell > 1 and w > 2 * ell * ell / log_ell,
        "M > 4*w^2*t/ell^2": m_len > 4 * w * w * t / ell**2,
        "M > w + 2*e*w^2/ell": m_len > w + 2 * math.e * w * w / ell,
        "M > w*t*log(ell)": ell > 1 and m_len > w * t * log_ell,
    }


# -- helpers that only the tests use ----------------------------------------------


def wilson_stderr(k: int, n: int) -> float:
    """Smoothed standard error sqrt(p~(1-p~)/n), p~ = (k+1)/(n+2); nonzero at k = 0."""
    p = (k + 1) / (n + 2)
    return float(np.sqrt(p * (1 - p) / n))


def b_factor(ell: int, t: int) -> float:
    """min{(18*ell*t)^(ell/2), t^ell}; the moment-inequality prefactor."""
    from disjunct.bounds import log_b_factor

    return math.exp(log_b_factor(ell, t))


def design_strength(spec) -> int:
    """Largest r with all dual coefficients 1..r zero (strength of the design)."""
    from disjunct.spectra import dual_spectrum_cw

    d = dual_spectrum_cw(spec).dual_distance
    return spec.weight if d == math.inf else int(d) - 1


def stirling2(r: int, v: int) -> int:
    """Stirling number of the second kind S(r, v), by inclusion-exclusion over the v blocks."""
    assert r >= 0 and v >= 0
    total = sum((-1) ** (v - i) * comb(v, i) * i**r for i in range(v + 1))
    assert total % factorial(v) == 0
    return total // factorial(v)


def pless_power_moment(spec, r: int) -> tuple[Fraction, Fraction]:
    """Both sides of the reduced Pless power-moment identity of a Hamming spectrum, equal when r < d':
    sum_j j^r A_j and N sum_v v! S(r, v) C(n, v) (q-1)^v / q^v, the 0th dual term alone."""
    n, q = spec.n, spec.q
    lhs = sum((a * j**r for j, a in enumerate(spec.distribution)), Fraction(0))
    rhs = sum(Fraction(factorial(v) * stirling2(r, v) * comb(n, v) * (q - 1) ** v, q**v)
              for v in range(min(r, n) + 1))
    return lhs, spec.size * rhs


def mu_exact_by_sum(n: int, p: Fraction, r: int) -> Fraction:
    """mu_n(2r) = sum_j ((j-np)/sqrt(p(1-p)))^(2r) C(n,j) p^j (1-p)^(n-j), summed term by term."""
    p = Fraction(p)
    total = sum(((j - n * p) ** (2 * r) * comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)), Fraction(0))
    return total / (p * (1 - p)) ** r


def element_coeffs(fld: Field, a: int) -> tuple[int, ...]:
    """Coefficient vector (c_0, ..., c_{m-1}) of element index a: its base-p digits, lowest first."""
    assert 0 <= a < fld.q
    return tuple((a // fld.p**i) % fld.p for i in range(fld.m))


def element_from_coeffs(fld: Field, coeffs) -> int:
    """The element index with coefficient vector (c_0, ..., c_{m-1}), the inverse of `element_coeffs`."""
    assert len(coeffs) == fld.m
    return sum((int(c) % fld.p) * fld.p**i for i, c in enumerate(coeffs))


def pair_counts_by_loop(words: np.ndarray, n: int) -> tuple[int, ...]:
    """Distance counts of the q-ary words over all ordered pairs, one pair at a time."""
    counts = [0] * (n + 1)
    for a in words.tolist():
        for b in words.tolist():
            counts[sum(x != y for x, y in zip(a, b))] += 1
    return tuple(counts)


def random_linear_code(fld: Field, n: int, k: int, seed: int) -> QaryCode:
    """A linear [n, k] code over `fld` from a random generator matrix of full rank, redrawn until
    its q^k words, one per message in lexicographic order, are distinct."""
    rng = np.random.default_rng(seed)
    messages = np.array(list(itertools.product(range(fld.q), repeat=k)))
    while True:
        rows = rng.integers(fld.q, size=(k, n))
        words = functools.reduce(fld.add, (fld.mul(messages[:, [i]], rows[i]) for i in range(k)))
        if len(np.unique(words, axis=0)) == fld.q**k:
            return QaryCode(fld, n, words)


def symbols_swapped_rs82():
    """RS(8,2) with symbols 0 and 1 swapped in the first coordinate: still q^k words, not linear."""
    from disjunct.codes import QaryCode, rs_code

    words = rs_code(Field(2, 3), 2).words.copy()
    first = words[:, 0].copy()
    words[first == 0, 0], words[first == 1, 0] = 1, 0
    return QaryCode(Field(2, 3), 7, words)


def _digits(v: int, p: int, width: int) -> list[int]:
    return [v // p**i % p for i in range(width)]


def _from_digits(coeffs, p: int) -> int:
    return sum(c * p**i for i, c in enumerate(coeffs))


def _times_coeffs(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def least_irreducible_by_products(p: int, m: int) -> tuple[int, ...]:
    """The least monic irreducible of degree m over GF(p), as `Field.modulus` gives it.

    A monic polynomial of degree d is the Python int whose d+1 base-p digits are its
    coefficients, so degree-m candidates are [p^m, 2 p^m) in the library's order.  The
    reducible ones are the products of monic polynomials of degrees d and m - d, 1 <= d <= m//2.
    """
    reducible = {
        _from_digits(_times_coeffs(_digits(a, p, d + 1), _digits(b, p, m - d + 1), p), p)
        for d in range(1, m // 2 + 1)
        for a in range(p**d, 2 * p**d)
        for b in range(p ** (m - d), 2 * p ** (m - d))
    }
    least = next(f for f in range(p**m, 2 * p**m) if f not in reducible)
    return tuple(_digits(least, p, m + 1))


def smallest_generator_by_powers(p: int, m: int, modulus) -> int:
    """The least element index whose powers g, g^2, ... first return to 1 at g^(q-1)."""
    def times(a: int, b: int) -> int:  # a * b mod the monic modulus, by schoolbook division
        prod = _times_coeffs(_digits(a, p, m), _digits(b, p, m), p)
        for i in range(len(prod) - 1, m - 1, -1):
            prod[i - m : i + 1] = [(x - prod[i] * c) % p for x, c in zip(prod[i - m : i + 1], modulus)]
        return _from_digits(prod[:m], p)

    for g in range(1, p**m):
        x, order = g, 1
        while x != 1:
            x, order = times(x, g), order + 1
        if order == p**m - 1:
            return g
    raise AssertionError(f"GF({p}^{m}) has no generator under {modulus}")


def _matrix_power_mod(a: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(len(a), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ a % p
        a = a @ a % p
        e >>= 1
    return out


def field_tables_by_orbit(fld: Field) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) as `Field._tables` built them before the doubling: the first candidate g = 1, 2, ...
    whose multiplication matrix T_g has T_g^((q-1)/l) != I for every prime l | q-1, one candidate
    at a time; then b -> b*g on all q elements as one (q, m) @ (m, m) product of coefficient rows;
    then the orbit of 1 under that map, one element at a time."""
    p, m, q = fld.p, fld.m, fld.q
    n = q - 1
    primes = [ell for ell in range(2, n + 1) if n % ell == 0 and all(ell % d for d in range(2, math.isqrt(ell) + 1))]
    low = np.array(fld.modulus[:-1], dtype=np.int64)  # x^m = -low

    def times(a: int) -> np.ndarray:  # row i: a * x^i, the row above shifted and reduced once
        rows = [np.array(_digits(a, p, m), dtype=np.int64)]
        for _ in range(m - 1):
            prev = rows[-1]
            rows.append((np.concatenate([[0], prev[:-1]]) - prev[-1] * low) % p)
        return np.array(rows)

    eye = np.eye(m, dtype=np.int64)
    t = next(t for t in map(times, range(1, q))
             if all(not np.array_equal(_matrix_power_mod(t, n // ell, p), eye) for ell in primes))
    places = p ** np.arange(m, dtype=np.int64)
    coeffs = np.arange(q, dtype=np.int64)[:, None] // places % p
    step = ((coeffs @ t) % p @ places).tolist()
    exp = [1] * n
    for i in range(1, n):
        exp[i] = step[exp[i - 1]]
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(n)
    return np.array(exp, dtype=np.int64), log


def rs_words_by_tables(fld: Field, k: int, messages: np.ndarray) -> np.ndarray:
    """Rows u of `codes.rs_code(fld, k)`: sum_j u_j x^j at every nonzero x, as int64, with products
    from the `field_tables_by_orbit` tables and sums from a (q, q) table of coefficient-row sums."""
    p, m, q = fld.p, fld.m, fld.q
    exp, log = field_tables_by_orbit(fld)
    if k > 1:  # plus[a, b] = a + b: q^2 entries, so built only where there is a sum
        coeffs = np.arange(q, dtype=np.int64)[:, None] // p ** np.arange(m) % p
        plus = (coeffs[:, None] + coeffs[None]) % p @ p ** np.arange(m)
    points, words = np.arange(1, q, dtype=np.int64), None
    for j in range(k):
        digit = np.asarray(messages, dtype=np.int64)[:, None] // q**j % q
        term = np.where(digit == 0, 0, exp[(log[digit] + j * log[points]) % (q - 1)])
        words = term if words is None else plus[words, term]
    return words
