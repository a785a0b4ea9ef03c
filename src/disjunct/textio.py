"""Matrix, design and code files: the canonical matrix text and the readers of all three.

The text is rendered, hashed and written from the (w, N) points RENDER_POINTS at a time, and
the three readers share one byte tokenizer that reads READ_BYTES at a time.  Both are numpy
passes over pieces of fixed size, so neither scratch grows with N or with M.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
from pathlib import Path
from stat import S_ISREG
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator

import numpy as np

from .errors import InputError
from .galois import Field, check_order, prime_power

if TYPE_CHECKING:  # `codes` imports this module; the readers import `codes` when called
    from .codes import ConstantWeightCode, QaryCode

RENDER_POINTS = 1 << 17  # support points per piece of the canonical matrix text
READ_BYTES = 1 << 18  # bytes read per piece of a matrix, design or code file

# the record of v < 1000: its hundreds, tens and ones digits at bytes 0..2, each leading zero a zero byte
_DIGITS = np.frombuffer(b"".join(b"%3d\0" % v for v in range(1000)).replace(b" ", b"\0"), dtype="<u4")
_ZEROS = np.uint32(0x303030)  # ORed into a record, turns its zero digit bytes into "0"


def matrix_bytes(matrix: ConstantWeightCode) -> Iterator[bytes]:
    """The canonical text form, header 'M N w' then one sorted support per line, in ASCII pieces.

    Each point is a few little-endian uint32 records, one per 3-digit group, high group first:
    bytes 0..2 hold the group's digits from the constant 1000-entry table `_DIGITS`, with zero
    bytes for the leading zeros of the point, and byte 3 of the last record holds the point's
    separator, a space or the newline after a column's last point.  Dropping the zero bytes
    leaves the text.  The points are rendered RENDER_POINTS at a time, so the scratch grows
    with neither M nor N.
    """
    w, n_cols = matrix.weight, matrix.num_columns
    yield f"{matrix.length} {n_cols} {w}\n".encode()
    if w == 0:  # the one weight-0 support, if there, is an empty line
        yield b"\n" * n_cols
        return
    groups = -(-len(str(max(matrix.length - 1, 0))) // 3)
    ends = np.array([*b" " * (w - 1), *b"\n"], dtype="<u4") << 24
    columns = max(1, min(RENDER_POINTS, matrix.points.size) // w)  # whole columns per piece
    for lo in range(0, n_cols, columns):
        rest = matrix.points[:, lo : lo + columns].T  # this piece's supports, one after another
        records = np.empty(rest.shape + (groups,), dtype="<u4")
        for g in range(groups - 1, -1, -1):  # the ones group first; `rest` is point // 1000^(groups - 1 - g)
            group = records[..., g]  # the indices below are in [0, 1000): mode "clip" checks nothing
            if g:  # a group below the top one: its zeros are digits when a higher group is nonzero
                above = rest // 1000
                np.take(_DIGITS, rest - 1000 * above, out=group, mode="clip")
                group |= _ZEROS * (above > 0).astype(np.uint32)
            else:  # the top group: points are below 10^(3 groups), so `rest` is below 1000
                np.take(_DIGITS, rest, out=group, mode="clip")
            if g < groups - 1:
                group *= rest > 0  # a group above the point's leading digit is all padding
            if g:
                rest = above
        records[..., -1] |= ends
        yield records.tobytes().translate(None, b"\0")


def matrix_digest(matrix: ConstantWeightCode, out: BinaryIO | None = None) -> str:
    """SHA-256 of the canonical matrix text (`matrix_bytes`), which is also written to `out` if given."""
    digest = hashlib.sha256()
    for piece in matrix_bytes(matrix):
        digest.update(piece)
        if out is not None:
            out.write(piece)
    return digest.hexdigest()


def write_matrix(path: str | Path, matrix: ConstantWeightCode) -> str:
    """Write the canonical matrix file; returns the content digest."""
    with open(path, "wb") as out:
        return matrix_digest(matrix, out)


def read_matrix(path: str | Path) -> ConstantWeightCode:
    """Matrix file: header 'M N w', then N rows of w points.  The rows are read READ_BYTES at a
    time into the (w, N) int32 `points`, which the matrix keeps without a copy."""
    from .codes import ConstantWeightCode

    with open(path, "rb") as file:
        header, rest = _first_line(_pieces(path, file))
        if header is None:
            raise InputError(f"{path}: empty matrix file")
        try:
            m, n_cols, w = (int(t) for t in header.split())
        except ValueError as exc:
            raise InputError(f"{path}: bad header {header!r}") from exc
        if min(m, n_cols, w) < 0 or max(n_cols, w) >= 2**63:  # numpy takes no larger dimension
            raise InputError(f"{path}: bad header {header!r}")
        if w == 0:
            if any(_INK.search(piece) for piece in rest):
                raise InputError(f"{path}: a weight-0 matrix has no points")
            return _empty_columns(m, n_cols)
        return ConstantWeightCode(m, _read_rows(path, file, rest, n_cols, w))


def read_design(path: str | Path) -> ConstantWeightCode:
    """Block file: one block per line (0-based points), after an optional 'M N w' header.

    A first line of three integers is the header when the lines after it agree with it: N of
    them, each of w points, every point below M; after a header of w = 0, none.  Otherwise it
    is the first block.  A headerless file of 3-point blocks whose first block (M, N, w) has N =
    the number of other blocks, w = 3 and every other point below M reads the same either way,
    so it is read as headered.  Each block is sorted; blocks of unequal sizes are an input error.
    """
    from .codes import ConstantWeightCode

    with open(path, "rb") as file:
        first, rest = _first_line(_pieces(path, file))
        if first is None:
            return _empty_columns(0, 0)
        blocks = list(_rows(path, rest, None))  # the header test needs all of them
    rest = np.concatenate(blocks) if blocks else np.empty((0, 0), dtype=np.int32)
    tokens = first.split()
    if len(tokens) == 3 and all(t.isascii() and t.isdigit() for t in tokens):  # `int` takes every such token
        m, n_cols, w = map(int, tokens)
        if w == 0 and not blocks:
            return _empty_columns(m, n_cols)
        if w < 2**63 and n_cols == len(rest) and (rest.shape[1] == w or not blocks) and (rest < m).all():
            return ConstantWeightCode(m, np.sort(rest, axis=1).T)
    (row,) = _rows(path, [first.encode()], None)
    if blocks and rest.shape[1] != row.shape[1]:
        raise InputError(f"{path}: expected {row.shape[1]} integers a row, found {rest.shape[1]}")
    rows = np.concatenate([row, rest]) if blocks else row
    return ConstantWeightCode(int(rows.max()) + 1, np.sort(rows, axis=1).T)


def read_code(path: str | Path) -> QaryCode:
    """Code file: header 'q n N', then N rows of alphabet indices.

    The field is rebuilt from q with the deterministic default modulus, so a
    round trip reproduces the construction exactly.
    """
    from .codes import QaryCode

    with open(path, "rb") as file:
        header, rest = _first_line(_pieces(path, file))
        if header is None:
            raise InputError(f"{path}: empty code file")
        try:
            q, n, n_words = (int(t) for t in header.split())
        except ValueError as exc:
            raise InputError(f"{path}: bad header {header!r}") from exc
        if max(n, n_words) >= 2**63:  # numpy takes no larger dimension
            raise InputError(f"{path}: bad header {header!r}")
        check_order(q)
        pm = prime_power(q)
        if pm is None:
            raise InputError(f"{path}: alphabet size {q} is not a prime power")
        if n < 1:
            raise InputError(f"{path}: code length n={n} must be >= 1")
        return QaryCode(Field(*pm), n, _read_rows(path, file, rest, n_words, n).T)


def _empty_columns(length: int, count: int) -> ConstantWeightCode:
    """The matrix a weight-0 header names: its empty supports are blank lines, which are dropped, so
    the header decides.  Two or more are equal columns, refused before the constructor keys them."""
    from .codes import ConstantWeightCode

    if count > 1:
        raise InputError("columns 0 and 1 are equal")
    return ConstantWeightCode(length, np.empty((0, count), dtype=np.int32))


# Bytes of a matrix, design or code file by their part in a row of integers.  An integer is
# [+-]?[0-9]+, read as -1 outside int32, which no point or symbol is; whitespace and line
# breaks are those of `str.split` and `str.splitlines` on ASCII; a line whose first other
# byte is "#" is a comment.
_DIGIT, _SPACE, _BREAK, _SIGN, _OTHER = range(5)
_KINDS = (b"0123456789", b" \t\x1f", b"\n\r\x0b\x0c\x1c\x1d\x1e", b"+-")
_KIND = bytes(next((k for k, of in enumerate(_KINDS) if c in of), _OTHER) for c in range(256))  # byte -> kind
_BREAKS = rb"\n\r\x0b\x0c\x1c-\x1e"
_COMMENT = re.compile(rb"(?:^|(?<=[" + _BREAKS + rb"]))[ \t\x1f]*#[^" + _BREAKS + rb"]*")
_INK = re.compile(rb"[^ \t\x1f" + _BREAKS + rb"]")  # a byte that makes its line nonblank
_LINE_END = re.compile(rb"[" + _BREAKS + rb"]|\Z")
_MAX_DIGITS = 9  # digits gathered per token in int32; a longer token is read by `int`


def _pieces(path: str | Path, file: BinaryIO) -> Iterator[bytes]:
    """The file's bytes, READ_BYTES at a time, each piece cut after its last line break, with
    its comment lines dropped.  A piece that is not UTF-8 is an input error."""
    parts: list[bytes] = []  # the line that the pieces so far have left open
    while chunk := file.read(READ_BYTES):
        cut = chunk.rfind(b"\n") + 1 or 1 + max(map(chunk.rfind, (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")))
        if cut:
            yield _uncommented(path, b"".join([*parts, chunk[:cut]]))
            parts = []
        parts.append(chunk[cut:])
    if any(parts):
        yield _uncommented(path, b"".join(parts))


def _uncommented(path: str | Path, piece: bytes) -> bytes:
    if not piece.isascii():
        try:
            piece.decode()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not a text file ({exc.reason})") from exc
    return _COMMENT.sub(b"", piece) if b"#" in piece else piece


def _first_line(pieces: Iterator[bytes]) -> tuple[str | None, Iterator[bytes]]:
    """The first nonblank line, stripped, and the pieces after it; (None, nothing) for no such line."""
    for piece in pieces:
        ink = _INK.search(piece)
        if ink:
            end = _LINE_END.search(piece, ink.start()).start()
            return piece[ink.start() : end].decode().strip(), itertools.chain([piece[end:]], pieces)
    return None, iter(())


def _rows(path: str | Path, pieces: Iterable[bytes], width: int | None) -> Iterator[np.ndarray]:
    """Each piece's nonblank lines as a (rows, width) int32 array; width None takes the first line's."""
    for piece in pieces:
        values, counts = _tokens(path, piece)
        if len(counts):
            width = int(counts[0]) if width is None else width
            wrong = counts != width
            if wrong.any():
                raise InputError(f"{path}: expected {width} integers a row, found {counts[wrong.argmax()]}")
            yield values.reshape(-1, width)


def _tokens(path: str | Path, piece: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(values, counts): the piece's integers in order, as int32 with -1 for any outside int32,
    and how many are on each of its nonblank lines.

    Each byte's kind comes from one `bytes.translate`.  A token is a run of bytes that are
    neither whitespace nor line breaks, found where the separator mask changes.  Its value is
    gathered one place a pass, from its last byte back to at most _MAX_DIGITS places, reading
    a zero before its first digit; a line's count is the number of tokens between its breaks."""
    b = np.frombuffer(piece, dtype=np.uint8)
    kind = np.frombuffer(piece.translate(_KIND), dtype=np.uint8)
    signed = kind.max(initial=0) > _BREAK  # a sign, or a byte no integer holds
    sep = np.ones(len(b) + 2, dtype=bool)  # a separator before and after the piece
    if signed:
        np.less_equal(kind - _SPACE, _BREAK - _SPACE, out=sep[1:-1])
    else:
        np.not_equal(kind, _DIGIT, out=sep[1:-1])
    bounds = np.flatnonzero(sep[1:] != sep[:-1])  # each token's start, then the byte after its end
    starts, ends = bounds[::2], bounds[1::2]
    counts = np.diff(np.searchsorted(bounds, np.flatnonzero(kind == _BREAK), side="right") >> 1,
                     prepend=0, append=len(starts))
    digits = ends - starts
    if signed:  # a sign may only lead a token of digits
        odd = np.flatnonzero(kind > _BREAK)
        token = np.searchsorted(starts, odd, side="right") - 1
        ok = (kind[odd] == _SIGN) & (starts[token] == odd) & (digits[token] > 1)
        if not ok.all():
            j = token[ok.argmin()]
            raise InputError(f"{path}: {piece[starts[j] : ends[j]][:32].decode(errors='replace')!r} is not an integer")
        digits -= kind[starts] == _SIGN
    places = min(int(digits.max(initial=0)), _MAX_DIGITS)
    value = np.zeros(len(b) + 1, dtype=np.uint8)  # each digit's value after a zero byte; 0 at any other byte
    np.subtract(b, 48, out=value[1:])
    value[1:] *= kind == _DIGIT
    at = ends.copy()  # where each token's next place is in `value`; `starts` is just before its first byte
    values = np.take(value, at).astype(np.int32)
    for place in range(1, places):
        at -= 1
        np.maximum(at, starts, out=at)
        values += np.take(value, at) * np.int32(10**place)
    for j in np.flatnonzero(digits > _MAX_DIGITS):
        exact = int(piece[starts[j] : ends[j]])
        values[j] = exact if -(2**31) <= exact < 2**31 else -1
    if signed:
        values[(b[starts] == ord("-")) & (digits <= _MAX_DIGITS)] *= -1
    return values, counts[counts > 0]


def _read_rows(path: str | Path, file: BinaryIO, pieces: Iterable[bytes], count: int, width: int) -> np.ndarray:
    """The pieces' count rows of width integers as a read-only (width, count) int32 array; another
    number of rows is an input error.  The header is never trusted for allocation.  A regular file
    too small for the rows, at 2 bytes an integer (a digit and a separator), is refused; else each
    row is written straight into its column.  A pipe's size is unknown, so its rows are kept as
    they arrive, at most count of them, and the array is shaped from them at the end."""
    info = os.fstat(file.fileno())
    regular = S_ISREG(info.st_mode)
    if count < 0 or (regular and 2 * count * width > info.st_size):
        raise InputError(f"{path}: header says N={count}, more rows of {width} than {info.st_size} bytes hold")
    out = np.empty((width, count), dtype=np.int32) if regular else None
    kept, done = [np.empty((0, width), dtype=np.int32)], 0
    for block in _rows(path, pieces, width):
        if done + len(block) <= count:
            if out is None:
                kept.append(block)
            else:
                out[:, done : done + len(block)] = block.T
        done += len(block)
    if done != count:
        raise InputError(f"{path}: header says N={count}, found {done} rows")
    if out is None:
        out = np.concatenate(kept).T.copy()
    out.flags.writeable = False  # a fresh array: `ConstantWeightCode` keeps it instead of copying
    return out
