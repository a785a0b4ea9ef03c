"""Code constructions and test matrices.

Every test matrix has constant column weight and one stored form, a (w, N)
array whose row p holds each column's p-th smallest point.  It is checked
with array operations, gathered by the decoder as it is, and bit-packed into
uint64 words for the containment kernels, a block of columns at a time.  Its
text form, and the digest of that text, are in `textio`.  Column order of every
construction is deterministic (message-lexicographic for evaluation codes,
support-lexicographic for subcode enumerations) so content digests and
simulations replay exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass
from functools import cached_property
from math import comb, log
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import errors
from .errors import InputError, check_budget
from .galois import MAX_FIELD_ORDER, Field, prime_power
# the matrix file format: `ConstantWeightCode.digest` reads its digest, and perfbench reads and
# writes matrix files through this module; every other caller imports `textio`
from .textio import matrix_digest, read_matrix, write_matrix

SPAN_SAMPLE = 64  # words row-reduced for a first basis in the linearity test of `linear_weights`
SPAN_ENTRIES = 1 << 20  # symbols (words * length) per pass of the span membership test
PACK_POINTS = 1 << 15  # points plus words of the columns bit-packed per block of `packed`
CHECK_POWERS = 1 << 18  # field powers per pass of the BCH check rows

_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))  # bit i of a word
_HALF_BITS = np.array([float(1 << i % 32) for i in range(64)])  # bit i of a word, as a weight in its 32-bit half


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis of a boolean array into uint64 words, bit i in word i // 64.

    Bits are little-endian within each word, the layout of `packed`; an
    empty last axis still yields one (zero) word.
    """
    bits = np.asarray(bits, dtype=bool)
    nbytes = 8 * max(1, -(-bits.shape[-1] // 64))
    out = np.zeros(bits.shape[:-1] + (nbytes,), dtype=np.uint8)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out[..., : packed.shape[-1]] = packed
    return out.view("<u8")


def _keys_tie(count: int, top: int, steps: Iterable[np.ndarray]) -> bool:
    """False when the keys of `count` equal-length sequences of values in [0, top) are pairwise
    distinct, which proves the sequences distinct; True when two keys tie and only whole sequences
    can tell.  Step p holds each sequence's p-th entry; a key packs the first 63 // bits entries,
    bits = (top - 1).bit_length()."""
    bits, key = max(1, int(top - 1).bit_length()), np.zeros(count, dtype=np.int64)
    for _, values in zip(range(63 // bits), steps):  # the longest prefix that fits in 63 bits
        key <<= bits
        key |= values
    key.sort()
    return bool(np.any(key[1:] == key[:-1]))


def colex_chunks(n: int, t: int, size: int = 1 << 15) -> Iterator[np.ndarray]:
    """The t-subsets of range(n) in colex order, as consecutive (<= size, t) int64 arrays of sorted rows.

    Row r is the subset c_1 < ... < c_t with sum_i C(c_i, i) = r (the combinatorial
    number system), unranked from its largest point down, one `np.searchsorted` per
    position.  Table entries are capped at min(C(n, t), 2^63 - 1) to stay in int64:
    a residual rank is below both, so a capped entry is never <= it.
    """
    total = comb(n, t)
    cap = min(total, 2**63 - 1)
    table = np.array([[min(comb(c, i), cap) for c in range(n)] for i in range(1, t + 1)], dtype=np.int64)
    for lo in range(0, total, size):
        rank = np.arange(lo, min(lo + size, total), dtype=np.int64)
        rows = np.empty((len(rank), t), dtype=np.int64)
        for i in range(t - 1, -1, -1):
            rows[:, i] = np.searchsorted(table[i], rank, side="right") - 1
            rank -= table[i, rows[:, i]]
        yield rows


def intersection_counts(matrix: ConstantWeightCode) -> np.ndarray:
    """h[a, s] = the number of columns b (b = a included) with |supp a & supp b| = s: column a's
    overlap profile.  Summed over a, it counts the ordered column pairs that share s points.

    An overlap is the popcount of two ANDed rows of `packed`, summed one word at a time.  A block of
    about `errors.BLOCK_WORDS // N` columns meets every column from its own first one on, so each
    unordered pair is ANDed once, into a (block column, column) table of overlaps.  Made in place
    into keys (row of h, overlap), it feeds one `np.bincount` for the block's rows, whose square it
    holds in both orders, and one for the later columns'.  Its three buffers are made once and reused.
    """
    packed, n, width = matrix.packed, matrix.num_columns, matrix.weight + 1
    b = max(1, errors.BLOCK_WORDS // max(1, n))  # columns per block
    size = min(b, n) * n
    anded, bits, table = np.empty(size, np.uint64), np.empty(size, np.uint8), np.empty(size, np.intp)
    keys = width * np.arange(n)
    h = np.zeros((n, width), dtype=np.int64)
    for lo in range(0, n, b):
        hi = min(n, lo + b)
        shape, cut, rest = (hi - lo, n - lo), (hi - lo) * (n - lo), (hi - lo) * (n - hi)
        overlap = table[:cut].reshape(shape)
        for k in range(packed.shape[1]):
            np.bitwise_and(packed[lo:hi, k, None], packed[lo:, k], out=anded[:cut].reshape(shape))
            if k:
                overlap += np.bitwise_count(anded[:cut], out=bits[:cut]).reshape(shape)
            else:  # the first word's overlaps, over the last block's keys
                np.bitwise_count(anded[:cut], out=table[:cut])
        # key (later column, overlap), into the AND buffer, which the popcounts are done with
        later = np.add(overlap[:, hi - lo :], keys[: n - hi], out=anded.view(np.intp)[:rest].reshape(hi - lo, -1))
        overlap += keys[: hi - lo, None]  # key (block column, overlap)
        h[lo:hi] += np.bincount(table[:cut], minlength=(hi - lo) * width).reshape(-1, width)
        h[hi:] += np.bincount(later.ravel(), minlength=(n - hi) * width).reshape(-1, width)
    return h


def linear_weights(fld: Field, words: np.ndarray) -> np.ndarray | None:
    """The weight distribution A_0..A_n of the (N, n) words when they form a GF(q)-linear
    code; None otherwise.  The caller guarantees that the N words are distinct.

    Distinct words span a space of q^rank >= N words, so they form a linear code exactly
    when q^rank = N.  A basis comes from row-reducing SPAN_SAMPLE words (fixed-seed sample);
    every word is then checked against it, and a word outside raises the rank by one.  A
    linear code's distances from any word are the weights of all words (MacWilliams-Sloane
    ch. 1 sec. 6), so its distance distribution is N * A.
    """
    n_words, n = words.shape
    k = round(log(n_words, fld.q))
    if fld.q**k != n_words:
        return None
    pick = np.random.default_rng(0).integers(n_words, size=min(n_words, SPAN_SAMPLE))
    pivots, basis = _row_echelon(fld, words[pick])
    outside = words
    while len(pivots) <= k:
        outside = outside[_outside_span(fld, pivots, basis, outside)]
        if len(outside) == 0:
            return np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1)
        pivots, basis = _row_echelon(fld, np.vstack([basis, outside[:1]]))
    return None


def _row_echelon(fld: Field, rows: np.ndarray) -> tuple[list[int], np.ndarray]:
    """(pivot columns, basis): the reduced row echelon form of the rows over `fld`."""
    a = np.array(rows, dtype=np.int64)
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        nonzero = np.flatnonzero(a[r:, c])
        if nonzero.size == 0:
            continue
        a[[r, r + nonzero[0]]] = a[[r + nonzero[0], r]]
        a[r] = fld.div(a[r], int(a[r, c]))
        factor = a[:, c].copy()
        factor[r] = 0
        a = fld.sub(a, fld.mul(factor[:, None], a[r]))
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return pivots, a[: len(pivots)]


def _outside_span(fld: Field, pivots: list[int], basis: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Mask of the words outside the span of a reduced echelon basis.

    A word x lies in the span iff x = sum_i x[pivot_i] * basis_i; the products come
    from one (q, w) table per basis row, c * basis_i for every element c.
    """
    tables = [fld.mul(np.arange(fld.q)[:, None], row) for row in basis]
    out = np.empty(len(words), dtype=bool)
    rows = max(1, SPAN_ENTRIES // max(1, words.shape[1]))  # int64 scratch per pass, whatever n
    for lo in range(0, len(words), rows):
        x = words[lo : lo + rows]
        y = np.zeros(x.shape, dtype=np.int64)
        for p, table in zip(pivots, tables):
            y = fld.add(y, table[x[:, p]])
        out[lo : lo + rows] = (y != x).any(axis=1)
    return out


def _cover_counts(matrix: ConstantWeightCode, probes: Sequence[int]) -> np.ndarray:
    """c[a] = sum over the probes j and the subsets S of supp j of (-1)^|S| [a_S = a], where a_S
    counts the columns b != j that miss every point of S.  By inclusion-exclusion, sum_a c[a] C(a, t)
    is the number of (t-set of other columns, probe) pairs whose union covers the probe, at every t.

    Per probe, T_b = supp b & supp j is a w-bit mask (bit i: the i-th point of supp j).  g starts
    as the bincount of T_b over b != j, columns that miss supp j at 0, and w subset-sum passes make
    g[U] the number of b with T_b inside U, so a_S = g[full ^ S] = g[::-1][S].  The columns that
    meet a probe come from one point -> columns index over the entries at the probes' points only,
    sorted by point, where each probe point's run is found by bisection, so nothing is M long;
    entry i of the flat (w, N) points belongs to column i % N.
    """
    n_cols, w, flat = matrix.num_columns, matrix.weight, matrix.points.ravel()
    parity = np.bitwise_count(np.arange(1 << w)) & 1
    at = np.flatnonzero(np.isin(flat, matrix.points[:, probes]))
    at = at[np.argsort(flat[at], kind="stable")]
    owner, runs = at % n_cols, flat[at]  # the columns at point p: owner[a : b], where runs[a : b] == p
    start, stop = (np.searchsorted(runs, matrix.points[:, probes], side).T for side in ("left", "right"))
    counts = np.zeros(2 * n_cols, dtype=np.int64)  # (a, parity of |S|) pairs
    for j, first, last in zip(probes, start, stop):
        cols = np.concatenate([owner[a:b] for a, b in zip(first.tolist(), last.tolist())] or [owner[:0]])
        bit = np.repeat(1 << np.arange(w), last - first)
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


@dataclass(frozen=True, eq=False)
class ConstantWeightCode:
    """Binary M x N test matrix of constant column weight w: row p of the (w, N) int32 array
    `points`, read-only, holds each column's p-th smallest point, so column j's support is
    points[:, j].  The rows are the points the decoder gathers by, one row per step."""

    length: int
    points: np.ndarray
    _distinct: InitVar[bool] = False  # the caller has proved the columns distinct; skip the re-proof

    def __post_init__(self, _distinct):
        points = np.asarray(self.points)
        if points.ndim != 2:
            raise InputError(f"points must be a (w, N) array, got shape {points.shape}")
        top = min(self.length, 2**31)  # points are stored as int32
        step = max(1, errors.BLOCK_WORDS // max(1, len(points)))  # columns checked per block
        for ok, why in ((lambda p: (p >= 0) & (p < top), f"has points outside [0, {top})"),
                        (lambda p: p[1:] > p[:-1], "is not sorted and duplicate-free")):
            for lo in range(0, points.shape[1], step):  # each check names the first column it fails
                good = ok(points[:, lo : lo + step]).all(axis=0)
                if not good.all():
                    raise InputError(f"column {lo + np.argmin(good)} {why}")
        if points.dtype != np.int32 or points.flags.writeable or not points.flags.c_contiguous:
            points = np.array(points, dtype=np.int32, order="C")  # a read-only C int32 array is kept as it is
            points.flags.writeable = False
        object.__setattr__(self, "points", points)
        if not _distinct and _keys_tie(self.num_columns, top, points):
            # lexsorted by their points, equal columns end up next to each other, the lower first
            order = np.lexsort(points) if len(points) else np.arange(self.num_columns)
            same = np.flatnonzero((points[:, order[1:]] == points[:, order[:-1]]).all(axis=0))
            if same.size:
                raise InputError(f"columns {order[same[0]]} and {order[same[0] + 1]} are equal")

    @property
    def weight(self) -> int:
        return self.points.shape[0]

    @property
    def num_columns(self) -> int:
        return self.points.shape[1]

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The supports as tuples, rebuilt from the points on every call, through one flat list."""
        if self.weight == 0:
            return ((),) * self.num_columns
        flat, w = self.points.T.ravel().tolist(), self.weight
        return tuple(tuple(flat[a : a + w]) for a in range(0, len(flat), w))

    @cached_property
    def packed(self) -> np.ndarray:
        """(N, ceil(length/64)) uint64 bit matrix, built PACK_POINTS points and words at a time.

        Points are distinct, so a word's bits add up without carries: per block, one
        `np.bincount` sums 2^(i % 32) at key (column, i >> 5), which is exact in float64, and
        each pair of 32-bit halves is one word.  A block of columns is whole rows of the output.
        A matrix with more than four words a column per point is mostly zero words, which the
        bincount would write three times over: it is zero-filled and or-scattered one row of
        points at a time instead, and a row holds one point a column, so no word is written twice
        by it.  The row loop wins from about eight words a point, the bincount up to four.  Read-only;
        more words than the matrix has points are held to the operations budget first."""
        n_cols, w, words = self.num_columns, self.weight, max(1, -(-self.length // 64))
        if words > w:
            check_budget(n_cols * words, f"bit-packed matrix of {n_cols}*{words} words")
        if words > 4 * w:
            out = np.zeros((n_cols, words), dtype=np.uint64)
            cols = np.arange(n_cols)
            for row in self.points:
                out[cols, row >> 6] |= _BITS[row & 63]
        else:
            out = np.empty((n_cols, words), dtype=np.uint64)
            step = max(1, PACK_POINTS // (w + words))
            for lo in range(0, n_cols, step):
                points = self.points[:, lo : lo + step]
                key = (points >> 5).astype(np.intp)
                key += np.arange(0, 2 * words * points.shape[1], 2 * words)
                halves = np.bincount(key.ravel(), _HALF_BITS[points & 63].ravel(), 2 * words * points.shape[1])
                out[lo : lo + step] = halves.astype("<u4").view("<u8").reshape(-1, words)
        out.flags.writeable = False  # one array for every caller
        return out

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the canonical matrix text (see `matrix_bytes`)."""
        return matrix_digest(self)

    @cached_property
    def linear_ks_counts(self) -> np.ndarray | None:
        """The overlap profile of every column (each row of `intersection_counts`), read-only, from
        the q-ary words, when the matrix is the Kautz-Singleton image of a GF(q)-linear code; else None.

        The image is recognised when q = M/w is a prime power and each column has one point in
        each q-block; its words are the columns of `points - q*arange(w)[:, None]`, alphabet indices read
        as elements of the default GF(q).  Distinct columns are distinct words, so when
        `linear_weights` finds them linear, the distances from any word are the weights of all
        words and h[s] = A_{w-s}.
        """
        n_cols, w = self.num_columns, self.weight
        if n_cols == 0 or w == 0 or self.length % w or self.length // w > MAX_FIELD_ORDER:
            return None
        q = self.length // w
        pm = prime_power(q)
        if pm is None:
            return None
        words = (self.points - q * np.arange(w, dtype=np.int32)[:, None]).T
        if words.min() < 0 or words.max() >= q:  # a point outside its column's block
            return None
        weights = linear_weights(Field(*pm), words)
        if weights is None:
            return None
        weights.flags.writeable = False  # one array for every caller
        return weights[::-1]

    @cached_property
    def overlap_profiles(self) -> tuple[np.ndarray, np.ndarray]:
        """(profiles, multiplicities), read-only: the distinct rows of `intersection_counts` and how
        many columns have each.  A linear Kautz-Singleton image has one, its `linear_ks_counts`; any
        other matrix counts its N^2 column pairs, under the operations budget, once."""
        n_cols, row = self.num_columns, self.linear_ks_counts
        if row is not None:
            profiles, multiplicities = row[None], np.array([n_cols])
        else:
            check_budget(n_cols * n_cols, f"pair count over {n_cols}^2 column pairs")
            profiles, multiplicities = np.unique(intersection_counts(self), axis=0, return_counts=True)
        profiles.flags.writeable = multiplicities.flags.writeable = False  # one pair for every caller
        return profiles, multiplicities

    @cached_property
    def cover_work(self) -> tuple[Sequence[int], int] | None:
        """(probes, operations) of `cover_counts`, w*2^w plus the index entries read per probe; None
        when its int64 table of 2^w entries would pass `errors.SCRATCH`.  A translation carries any
        column of a linear Kautz-Singleton image (`linear_ks_counts`) to any other, so probe 0, read
        by one pass over the N*w points, stands for all N; any other matrix computes every probe."""
        w = self.weight
        if 8 << w > errors.SCRATCH:
            return None
        if self.linear_ks_counts is not None:
            return [0], (w << w) + self.points.size
        degree = np.unique(self.points, return_counts=True)[1]  # of the points that occur, whatever M
        return range(self.num_columns), self.num_columns * (w << w) + int(degree @ degree)

    @cached_property
    def cover_counts(self) -> np.ndarray:
        """c[a] of `_cover_counts` over every probe, read-only: the (t-set, probe) pairs covered at
        every t.  Under the operations budget, once; an input error when `cover_work` is None."""
        if self.cover_work is None:
            raise InputError(f"a cover table of 2^{self.weight} int64 entries passes the scratch")
        probes, work = self.cover_work
        check_budget(work, f"inclusion-exclusion over {len(probes)} probe(s), w*2^w + index entries per probe")
        counts = _cover_counts(self, probes) * (self.num_columns // len(probes))
        counts.flags.writeable = False  # one array for every caller
        return counts

    def min_distance(self) -> int | None:
        """Minimum pairwise Hamming distance 2*(w - max intersection); None if N < 2."""
        if self.num_columns < 2:
            return None
        shared = self.overlap_profiles[0][:, : self.weight].any(axis=0)  # others share < w points
        return 2 * (self.weight - int(np.flatnonzero(shared)[-1]))


@dataclass(frozen=True)
class QaryCode:
    """Explicit q-ary code: `words` is an (N, n) array of alphabet indices, kept read-only in the
    narrowest unsigned type that holds q-1: uint8 for q <= 256, else uint16 (q <= MAX_FIELD_ORDER)."""

    field: Field
    n: int
    words: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.words)
        if w.ndim != 2 or w.shape[1] != self.n:
            raise InputError(f"words must be (N, {self.n}), got {w.shape}")
        if w.size and (w.min() < 0 or w.max() >= self.field.q):
            raise InputError("symbol outside alphabet range")
        dtype = np.min_scalar_type(self.field.q - 1)
        if w.dtype != dtype or w.flags.writeable or not w.flags.c_contiguous:
            w = np.array(w, dtype=dtype, order="C")  # in range: exact; a read-only C array is kept as it is
        if _keys_tie(len(w), self.field.q, w.T) and len(np.unique(w, axis=0)) != len(w):
            raise InputError("codewords are not distinct")
        w.flags.writeable = False
        object.__setattr__(self, "words", w)

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def q(self) -> int:
        return self.field.q


# -- Reed-Solomon ------------------------------------------------------------


def rs_code(fld: Field, k: int) -> QaryCode:
    """Evaluation code of all polynomials of degree < k at the q-1 nonzero elements.

    n = q-1, N = q^k; MDS with distance n-k+1 and dual distance k+1.  Codeword
    order is message-lexicographic: message u in [0, q^k) has coefficient of
    x^j equal to (u // q^j) % q.

    Word u is the field sum of T_j[u_j] over j, where T_j[a] = a * x^j at every point.  The
    words are built in message order, one digit at a time: once the words of the messages
    below q^j are in place, those of the messages u + a q^j (a = 1..q-1) are each of them
    plus T_j[a], written by `Field.add` straight into the array, at most 2^20 symbols a
    pass.  The N*n symbols are held to the operations budget.
    """
    q = fld.q
    if not 1 <= k <= q - 1:
        raise InputError(f"dimension k={k} outside [1, {q - 1}]")
    n = q - 1
    size = q**k
    check_budget(size * n, f"RS({q},{k}) enumeration of N*n = {q}^{k}*{n} symbols")

    words = np.empty((size, n), dtype=np.min_scalar_type(q - 1))
    words[0] = 0
    step, points = max(1, (1 << 20) // n), np.arange(1, q)  # words per pass; n < 2^16
    power = points[:, None]  # T_j[a] for a = 1..q-1; x^0 = 1 at every point, so T_0 is one column
    for j in range(k):
        if j:
            power = fld.mul(power, points)  # T_j[a] = T_(j-1)[a] * x
        done, table = q**j, power.astype(words.dtype)
        below, out = words[:done], words[done : q * done].reshape(q - 1, done, n)
        digits = max(1, step // done)
        for a, lo in itertools.product(range(0, q - 1, digits), range(0, done, step)):
            fld.add(below[lo : lo + step], table[a : a + digits, None], out=out[a : a + digits, lo : lo + step])
    words.flags.writeable = False  # a fresh array: the constructor keeps it instead of copying
    return QaryCode(fld, n, words)


# -- BCH codes (parity-check form) -------------------------------------------


@dataclass(frozen=True)
class ParityCheckCode:
    """Binary linear code of length n given by a parity-check matrix over GF(2)."""

    n: int
    check: np.ndarray  # (rows, n) uint8

    def __post_init__(self):
        h = np.asarray(self.check)
        if h.dtype != np.uint8 or h.flags.writeable or not h.flags.c_contiguous or h.max(initial=0) > 1:
            h = np.ascontiguousarray(h, dtype=np.uint8) & 1  # a read-only 0/1 uint8 array is kept as it is
            h.flags.writeable = False
        if h.ndim != 2 or h.shape[1] != self.n:
            raise InputError(f"check matrix must be (rows, {self.n}), got {h.shape}")
        object.__setattr__(self, "check", h)

    @cached_property
    def column_syndromes(self) -> np.ndarray:
        """(n, K) uint64 words, read-only; syndrome of a support = XOR of its columns."""
        syndromes = pack_bits(self.check.T)
        syndromes.flags.writeable = False  # one array for every caller
        return syndromes


def bch_code(m: int, delta: int) -> ParityCheckCode:
    """Narrow-sense binary BCH code of length 2^m - 1 with zeros alpha..alpha^(delta-1).

    Returned in parity-check form: m rows of binary components per zero,
    so membership is a syndrome test without enumerating 2^k codewords.
    The (delta-1)*m*n check entries are held to the operations budget before any is built.
    """
    if m < 2:
        raise InputError(f"extension degree m={m} must be >= 2")
    n = 2**m - 1
    if not 2 <= delta <= n:
        raise InputError(f"designed distance delta={delta} outside [2, {n}]")
    check_budget((delta - 1) * m * n, f"BCH({n},{delta}) check rows of {delta - 1}*{m}*{n} entries")
    fld = Field(2, m)
    # row block i-1 holds the m binary components of alpha^(i*j), j = 0..n-1, one uint8 bit plane
    # at a time; the powers are taken CHECK_POWERS at a time, so their int64 scratch stays small
    rows = np.empty((delta - 1, m, n), dtype=np.uint8)
    exps, step = np.arange(1, delta), max(1, CHECK_POWERS // n)  # the zeros are alpha^i, i in exps
    for lo in range(0, delta - 1, step):
        powers = fld.pow(fld.generator, exps[lo : lo + step, None] * np.arange(n))
        for b in range(m):
            np.bitwise_and(powers >> b, 1, out=rows[lo : lo + step, b], casting="unsafe")
    rows.flags.writeable = False  # a fresh 0/1 array: the constructor keeps it instead of copying
    return ParityCheckCode(n, rows.reshape(-1, n))


def fixed_weight_subcode(code: ParityCheckCode, w: int, *, pair_charge: bool = False) -> ConstantWeightCode:
    """All weight-w codewords of a binary linear code, as column supports.

    The walk finds the `walk` = min(w, n-w)-point subsets S with syndrome `base`: zero, or
    when w > n/2 that of all n columns, as it then finds the (n-w)-point complements (a
    support's syndrome is base XOR its complement's).  S splits in exactly one way into A,
    its lowest a = walk//2 points, and B, its highest b = walk - a, with max A < min B and
    syn(A) ^ base = syn(B).  The a-subsets are sorted by first syndrome word, then by largest
    point; the b-subsets stream past in `colex_chunks`, and each looks up the A with its first
    word and max A < min B, which are checked in every word.  The supports come in
    lexicographic order, which for complements is their reverse lexicographic order (two
    sets of one size differ first at the least point of their symmetric difference); with no
    weight-w codeword the code is empty.

    Budget: the C(n,a) + C(n,b) subsets of the halves (an empty half is the empty set alone)
    before either is built; then, chunk by chunk, the pairs matched on the first word so far
    at w points each, before that chunk's matched B are kept.  The pairs are built only once
    every chunk is counted, so the matched B, the kept rows and the w-point supports all stay
    within a constant times the charge.  With `pair_charge`, a code of one syndrome word, whose
    first-word matches are its supports, is also charged the N^2 column pairs that `min_distance`
    counts, chunk by chunk, so a layer too large for them is refused while it is counted.
    """
    n = code.n
    if not 0 < w <= n:
        raise InputError(f"weight w={w} outside [1, {n}]")
    walk = min(w, n - w)
    a, b = walk // 2, walk - walk // 2
    what = f"weight-{w} meet of C({n},{a}) + C({n},{b}) subsets"
    halves = sum(comb(n, h) for h in (a, b) if h)
    check_budget(halves, what)
    syndromes = code.column_syndromes
    base = np.bitwise_xor.reduce(syndromes, axis=0) if walk < w else np.zeros_like(syndromes[0])
    low = next(colex_chunks(n, a, comb(n, a)))  # colex order: the largest point never falls
    low_syn = _xor_rows(syndromes, low) ^ base
    order = np.argsort(low_syn[:, 0], kind="stable")
    keys, first = np.unique(low_syn[order, 0], return_index=True)
    # slot of the k-th sorted A: its first word's place in keys, then max A + 1 (0 for A empty)
    slots = np.repeat(np.arange(len(keys)) * (n + 1), np.diff(first, append=len(order)))
    slots += low[order, -1] + 1 if a else 0
    matched, pairs, seen = [], 0, 0  # per chunk: the B with a first-word match, their syndromes and A
    for high in colex_chunks(n, b):
        syn = _xor_rows(syndromes, high)
        j = np.searchsorted(keys, syn[:, 0]).clip(max=len(keys) - 1)
        least = high[:, 0] if b else n  # min B; an empty B bounds nothing
        bound = j * (n + 1) + least + 1
        sort = np.argsort(bound)  # sorted queries: each search starts from the last one's place
        count = np.empty_like(bound)
        count[sort] = np.searchsorted(slots, bound[sort])
        count -= first[j]
        count[keys[j] != syn[:, 0]] = 0
        pairs += int(count.sum())
        check_budget(halves + pairs * w, f"{what} and {pairs} pairs matched so far, at {w} points each")
        seen += len(high)
        if pair_charge and syndromes.shape[1] == 1:
            more = " or more" if seen < comb(n, b) else ""
            check_budget(pairs * pairs, f"pair count over {pairs}^2{more} column pairs")
        hit = np.flatnonzero(count)  # at most one B per pair: within the charge
        matched.append((high[hit], syn[hit], first[j[hit]], count[hit]))
    kept = [np.empty((0, walk), dtype=np.int32)]
    for high, syn, start, count in matched:
        row = np.repeat(np.arange(len(high)), count)  # one entry per (B, A) pair
        pick = order[np.arange(len(row)) + np.repeat(start - np.cumsum(count) + count, count)]
        same = (low_syn[pick] == syn[row]).all(axis=1)
        kept.append(np.hstack([low[pick[same]], high[row[same]]]).astype(np.int32))
    rows = np.concatenate(kept)
    del kept
    lex = np.lexsort(rows.T[::-1]) if walk else np.arange(len(rows))  # first point most significant
    if walk == w:
        out = rows.T[:, lex]
    else:  # each kept row is a complement; its support is every other point, built in blocks
        lex, points = lex[::-1], np.arange(n, dtype=np.int32)
        out, step = np.empty((w, len(rows)), dtype=np.int32), max(1, (1 << 20) // n)
        for lo in range(0, len(rows), step):
            block = rows[lex[lo : lo + step]]
            outside = np.ones((len(block), n), dtype=bool)
            outside[np.arange(len(block))[:, None], block] = False
            out[:, lo : lo + step] = np.broadcast_to(points, outside.shape)[outside].reshape(-1, w).T
    out.flags.writeable = False  # a fresh array: the constructor keeps it instead of copying
    return ConstantWeightCode(n, out, _distinct=True)  # one (A, B) split per support


def _xor_rows(syndromes: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row r: the XOR of the syndromes of the points in idx[r]."""
    out = np.zeros((len(idx), syndromes.shape[1]), dtype=syndromes.dtype)
    for c in range(idx.shape[1]):
        out ^= syndromes[idx[:, c]]
    return out


# -- Kautz-Singleton map ------------------------------------------------------


def kautz_singleton(code: QaryCode) -> ConstantWeightCode:
    """Replace each symbol by its weight-1 indicator block of length q.

    Symbol value a at position i maps to matrix row i*q + a; the image is an
    (M = q*n, N, 2d, w = n) constant-weight code.
    """
    if code.size == 0:
        raise InputError("Kautz-Singleton map needs a nonempty code")
    q, n = code.q, code.n
    if q * n > 2**31:  # the int32 rows below would wrap
        raise InputError(f"Kautz-Singleton image has points outside [0, {2**31})")
    points = np.empty((n, code.size), dtype=np.int32)
    np.add(code.words.T, q * np.arange(n, dtype=np.int32)[:, None], out=points)
    points.flags.writeable = False  # a fresh array: the constructor keeps it instead of copying
    return ConstantWeightCode(q * n, points, _distinct=True)  # `QaryCode` proved the words distinct


# -- designs -------------------------------------------------------------------


def load_design(
    blocks: Iterable[Sequence[int]], length: int | None = None
) -> ConstantWeightCode:
    """Constant-weight code whose columns are the given blocks, each sorted; blocks of unequal
    sizes are an input error, and so are a repeated point or a repeated block.

    Strength is not assumed; measure it downstream with the Hahn transform.
    """
    cols = [sorted(int(i) for i in b) for b in blocks]
    if length is None:
        length = 1 + max((max(b, default=-1) for b in cols), default=-1)
    w = len(cols[0]) if cols else 0
    wrong = next((j for j, b in enumerate(cols) if len(b) != w), None)
    if wrong is not None:
        raise InputError(f"column {wrong} does not have weight {w}")
    return ConstantWeightCode(length, np.array(cols, dtype=np.int64).reshape(len(cols), w).T)

