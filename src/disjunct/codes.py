"""Code constructions and test matrices.

Binary test matrices are stored column-wise as sorted supports and lazily
bit-packed into uint64 words for the containment kernels.  Column order of
every construction is deterministic (message-lexicographic for evaluation
codes, support-lexicographic for subcode enumerations) so content digests
and simulations replay exactly.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, InputError
from .galois import Field, prime_power

MAX_RS_CODEWORDS = 10**6
MAX_SUBCODE_ENUM = 10**7
MAX_SPECTRUM_PAIRS_N = 10**4


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


def support_steps(columns: Sequence[Sequence[int]]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(rows, points) for p = 0, 1, ...: the columns with more than p points and their p-th point.

    One point per column per step, so a scattered update indexed by `rows`
    never writes a column twice; an empty support takes part in no step.
    """
    sizes = np.fromiter(map(len, columns), dtype=np.int64, count=len(columns))
    points = np.fromiter(
        itertools.chain.from_iterable(columns), dtype=np.int64, count=int(sizes.sum())
    )
    starts = np.cumsum(sizes) - sizes
    for p in range(int(sizes.max(initial=0))):
        rows = np.flatnonzero(sizes > p)
        yield rows, points[starts[rows] + p]


def pack_supports(length: int, columns: Sequence[Sequence[int]]) -> np.ndarray:
    """Pack column supports into a (N, ceil(length/64)) uint64 bit matrix, one support point per step."""
    out = np.zeros((len(columns), max(1, -(-length // 64))), dtype=np.uint64)
    for rows, i in support_steps(columns):
        out[rows, i >> 6] |= np.left_shift(np.uint64(1), (i & 63).astype(np.uint64))
    return out


@dataclass(frozen=True)
class BinaryMatrix:
    """Binary M x N matrix stored as N column supports (not necessarily constant weight)."""

    length: int
    columns: tuple[tuple[int, ...], ...]
    warning: str | None = None

    def __post_init__(self):
        seen = set()
        for supp in self.columns:
            if any(not 0 <= i < self.length for i in supp):
                raise InputError(f"support {supp} has points outside [0, {self.length})")
            if list(supp) != sorted(set(supp)):
                raise InputError(f"support {supp} is not sorted and duplicate-free")
            if supp in seen:
                raise InputError(f"duplicate column {supp}")
            seen.add(supp)

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @cached_property
    def packed(self) -> np.ndarray:
        return pack_supports(self.length, self.columns)


@dataclass(frozen=True)
class ConstantWeightCode(BinaryMatrix):
    """Binary constant-weight code: every column support has exactly `weight` points."""

    weight: int = 0

    def __post_init__(self):
        super().__post_init__()
        for supp in self.columns:
            if len(supp) != self.weight:
                raise InputError(
                    f"support {supp} has weight {len(supp)}, expected {self.weight}"
                )

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the canonical matrix text (see `matrix_text`)."""
        return matrix_digest(self)

    def min_distance(self) -> int | None:
        """Minimum pairwise Hamming distance 2*(w - max intersection); None if N < 2."""
        if self.num_columns < 2:
            return None
        packed = self.packed
        best = 0
        for j in range(self.num_columns):
            inter = np.bitwise_count(packed & packed[j]).sum(axis=1).astype(np.int64)
            inter[j] = -1
            best = max(best, int(inter.max()))
        return 2 * (self.weight - best)


@dataclass(frozen=True)
class QaryCode:
    """Explicit q-ary code: `words` is an (N, n) integer array of alphabet indices."""

    field: Field
    n: int
    words: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.words, dtype=np.int32)
        if w.ndim != 2 or w.shape[1] != self.n:
            raise InputError(f"words must be (N, {self.n}), got {w.shape}")
        if w.size and (w.min() < 0 or w.max() >= self.field.q):
            raise InputError("symbol outside alphabet range")
        if len(np.unique(w, axis=0)) != len(w):
            raise InputError("codewords are not distinct")
        w.flags.writeable = False
        object.__setattr__(self, "words", w)

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def q(self) -> int:
        return self.field.q

    def min_distance(self) -> int | None:
        """Exhaustive minimum pairwise Hamming distance; None if N < 2."""
        if self.size < 2:
            return None
        best = self.n + 1
        words = self.words
        for j in range(self.size - 1):
            d = (words[j + 1 :] != words[j]).sum(axis=1)
            best = min(best, int(d.min()))
        return best


# -- Reed-Solomon ------------------------------------------------------------


def rs_code(fld: Field, k: int, *, max_size: int = MAX_RS_CODEWORDS) -> QaryCode:
    """Evaluation code of all polynomials of degree < k at the q-1 nonzero elements.

    n = q-1, N = q^k; MDS with distance n-k+1 and dual distance k+1.  Codeword
    order is message-lexicographic: message u in [0, q^k) has coefficient of
    x^j equal to (u // q^j) % q.
    """
    q = fld.q
    if not 1 <= k <= q - 1:
        raise InputError(f"dimension k={k} outside [1, {q - 1}]")
    n = q - 1
    size = q**k
    if size > max_size:
        raise BudgetExceeded(f"RS enumeration N={size} exceeds budget {max_size}")

    msgs = np.arange(size, dtype=np.int64)[:, None]
    digits = [(msgs // q**j) % q for j in range(k)]
    points = np.arange(1, q)
    words = np.empty((size, n), dtype=np.int32)
    block = max(1, (1 << 20) // size)  # evaluation points per pass: 8 MiB temporaries
    for lo in range(0, n, block):
        acc = digits[k - 1]
        for j in range(k - 2, -1, -1):  # Horner at points[lo : lo + block]
            acc = fld.add(fld.mul(acc, points[lo : lo + block]), digits[j])
        words[:, lo : lo + block] = acc
    return QaryCode(fld, n, words)


# -- BCH codes (parity-check form) -------------------------------------------


@dataclass(frozen=True)
class ParityCheckCode:
    """Binary linear code of length n given by a parity-check matrix over GF(2)."""

    n: int
    check: np.ndarray  # (rows, n) uint8

    def __post_init__(self):
        h = np.ascontiguousarray(self.check, dtype=np.uint8) & 1
        if h.ndim != 2 or h.shape[1] != self.n:
            raise InputError(f"check matrix must be (rows, {self.n}), got {h.shape}")
        h.flags.writeable = False
        object.__setattr__(self, "check", h)

    @cached_property
    def rank(self) -> int:
        return gf2_rank(self.check)

    @cached_property
    def column_syndromes(self) -> np.ndarray:
        """(n, K) uint64 words; syndrome of a support = XOR of its columns."""
        return pack_bits(self.check.T)


def gf2_rank(matrix: np.ndarray) -> int:
    rows = [int.from_bytes(pack_bits(row).tobytes(), "little") for row in matrix]
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot = max(rows)
        rows.remove(pivot)
        if pivot == 0:
            continue
        rank += 1
        top = pivot.bit_length() - 1
        rows = [r ^ pivot if (r >> top) & 1 else r for r in rows]
    return rank


def bch_code(m: int, delta: int) -> ParityCheckCode:
    """Narrow-sense binary BCH code of length 2^m - 1 with zeros alpha..alpha^(delta-1).

    Returned in parity-check form: m rows of binary components per zero,
    so membership is a syndrome test without enumerating 2^k codewords.
    """
    if m < 2:
        raise InputError(f"extension degree m={m} must be >= 2")
    n = 2**m - 1
    if not 2 <= delta <= n:
        raise InputError(f"designed distance delta={delta} outside [2, {n}]")
    fld = Field(2, m)
    # row block i-1 holds the m binary components of alpha^(i*j), j = 0..n-1
    powers = fld.pow(fld.generator, np.arange(1, delta)[:, None] * np.arange(n))
    rows = (powers[:, None, :] >> np.arange(m)[:, None]) & 1
    return ParityCheckCode(n, rows.reshape(-1, n))


def fixed_weight_subcode(
    code: ParityCheckCode, w: int, *, max_enum: int = MAX_SUBCODE_ENUM
) -> ConstantWeightCode:
    """All weight-w codewords of a binary linear code, as column supports.

    Enumerates the C(n, w) supports in lexicographic order and keeps those
    with zero syndrome.  Returns an empty code with a warning set when no
    weight-w codeword exists.
    """
    n = code.n
    if not 0 < w <= n:
        raise InputError(f"weight w={w} outside [1, {n}]")
    total = comb(n, w)
    if total > max_enum:
        raise BudgetExceeded(f"C({n},{w}) = {total} supports exceeds budget {max_enum}")
    syndromes = code.column_syndromes
    kept: list[tuple[int, ...]] = []
    combos = itertools.combinations(range(n), w)
    chunk = 1 << 15
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, chunk)),
            dtype=np.int64,
        )
        if flat.size == 0:
            break
        idx = flat.reshape(-1, w)
        syn = syndromes[idx[:, 0]].copy()
        for c in range(1, w):
            syn ^= syndromes[idx[:, c]]
        good = ~syn.any(axis=1)
        kept.extend(tuple(int(v) for v in row) for row in idx[good])
    warning = None if kept else f"no weight-{w} codewords; subcode is empty"
    return ConstantWeightCode(
        length=n, columns=tuple(kept), weight=w, warning=warning
    )


# -- Kautz-Singleton map ------------------------------------------------------


def kautz_singleton(code: QaryCode) -> ConstantWeightCode:
    """Replace each symbol by its weight-1 indicator block of length q.

    Symbol value a at position i maps to matrix row i*q + a; the image is an
    (M = q*n, N, 2d, w = n) constant-weight code.
    """
    if code.size == 0:
        raise InputError("Kautz-Singleton map needs a nonempty code")
    q, n = code.q, code.n
    offsets = q * np.arange(n, dtype=np.int64)
    cols = tuple(tuple(int(v) for v in row + offsets) for row in code.words)
    return ConstantWeightCode(length=q * n, columns=cols, weight=n)


# -- designs -------------------------------------------------------------------


def load_design(
    blocks: Iterable[Sequence[int]], length: int | None = None
) -> ConstantWeightCode:
    """Constant-weight code whose columns are the given blocks.

    Strength is not assumed; measure it downstream with the Hahn transform.
    """
    cols = tuple(tuple(sorted(int(i) for i in b)) for b in blocks)
    if not cols:
        return ConstantWeightCode(length=length or 0, columns=(), weight=0)
    w = len(cols[0])
    for b in cols:
        if len(b) != w:
            raise InputError(f"ragged block sizes: {len(b)} != {w}")
        if len(set(b)) != len(b):
            raise InputError(f"block {b} has repeated points")
    top = max(max(b) for b in cols)
    if length is None:
        length = top + 1
    return ConstantWeightCode(length=length, columns=cols, weight=w)


# -- file formats --------------------------------------------------------------


def matrix_text(matrix: ConstantWeightCode) -> str:
    """Canonical text form: header 'M N w', then one sorted support per line."""
    lines = [f"{matrix.length} {matrix.num_columns} {matrix.weight}"]
    lines.extend(" ".join(str(i) for i in supp) for supp in matrix.columns)
    return "\n".join(lines) + "\n"


def matrix_digest(matrix: ConstantWeightCode) -> str:
    return hashlib.sha256(matrix_text(matrix).encode()).hexdigest()


def write_matrix(path: str | Path, matrix: ConstantWeightCode) -> str:
    """Write the canonical matrix file; returns the content digest."""
    text = matrix_text(matrix)
    Path(path).write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def read_matrix(path: str | Path) -> ConstantWeightCode:
    lines = _data_lines(path)
    if not lines:
        raise InputError(f"{path}: empty matrix file")
    try:
        m, n_cols, w = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise InputError(f"{path}: bad header {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != n_cols:
        raise InputError(f"{path}: header says N={n_cols}, found {len(body)} supports")
    return ConstantWeightCode(length=m, columns=tuple(_int_rows(path, body)), weight=w)


def read_design(path: str | Path) -> ConstantWeightCode:
    """Block file: optional 'M N w' header, then one block per line (0-based points)."""
    lines = _data_lines(path)
    if not lines:
        return ConstantWeightCode(length=0, columns=(), weight=0)
    header = None
    tokens = lines[0].split()
    if (
        len(tokens) == 3
        and all(t.isdigit() for t in tokens)
        and len(lines) - 1 == int(tokens[1])
    ):
        header = tuple(int(t) for t in tokens)
        lines = lines[1:]
    design = load_design(_int_rows(path, lines), length=header[0] if header else None)
    if header and design.num_columns and design.weight != header[2]:
        raise InputError(f"{path}: header weight {header[2]} != block size {design.weight}")
    return design


def write_code(path: str | Path, code: QaryCode) -> None:
    lines = [f"{code.q} {code.n} {code.size}"]
    lines.extend(" ".join(str(int(v)) for v in row) for row in code.words)
    Path(path).write_text("\n".join(lines) + "\n")


def read_code(path: str | Path) -> QaryCode:
    """Code file: header 'q n N', then N rows of alphabet indices.

    The field is rebuilt from q with the deterministic default modulus, so a
    round trip reproduces the construction exactly.
    """
    lines = _data_lines(path)
    if not lines:
        raise InputError(f"{path}: empty code file")
    try:
        q, n, n_words = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise InputError(f"{path}: bad header {lines[0]!r}") from exc
    pm = prime_power(q)
    if pm is None:
        raise InputError(f"{path}: alphabet size {q} is not a prime power")
    if n < 1:
        raise InputError(f"{path}: code length n={n} must be >= 1")
    body = lines[1:]
    if len(body) != n_words:
        raise InputError(f"{path}: header says N={n_words}, found {len(body)} rows")
    rows = _int_rows(path, body)
    if any(len(row) != n for row in rows):
        raise InputError(f"{path}: every row needs n={n} symbols")
    words = np.array(rows, dtype=np.int32).reshape(n_words, n)
    return QaryCode(Field(*pm), n, words)


def _int_rows(path: str | Path, lines: list[str]) -> list[tuple[int, ...]]:
    """Each line as a tuple of integers; a token that is not one is an input error."""
    try:
        return [tuple(int(t) for t in line.split()) for line in lines]
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _data_lines(path: str | Path) -> list[str]:
    try:
        raw = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file ({exc.reason})") from exc
    return [ln.strip() for ln in raw if ln.strip() and not ln.lstrip().startswith("#")]
