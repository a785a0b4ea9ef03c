"""Counter-based randomness for replayable Monte Carlo.

Every random draw is a pure function of (seed, trial, slot), so trial loops
can be chunked or parallelized any way at all and still produce identical
results:

    u(seed, trial, slot) = mix(mix(seed ^ (trial+1)*C1) ^ (slot+1)*C2)

where mix is the splitmix64 finalizer.  Uniform integers below m are taken
as u % m; the bias is below m / 2^64 (< 1e-13 for every population size
used here) and is documented rather than rejected away so each trial
consumes a fixed number of counter slots.  Blocks of draws are built
slot-major, one row per slot, and `sample_distinct` turns a trial's draws
into distinct indices by the right-to-left decode of a Lehmer code.  It
mixes, reduces and decodes `errors.BLOCK_WORDS` draws at a time, whole
trials per block, in buffers it reuses; as every draw is a pure function of
its counters, the block size changes no pick.
"""

from __future__ import annotations

import numpy as np

from . import errors
from .errors import InputError

_C1 = 0x9E3779B97F4A7C15
_C2 = 0xC2B2AE3D27D4EB4F
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix64_into(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer on uint64 `x` in place; `tmp`, of x's shape, holds the shifts."""
    for shift, mult in ((30, _M1), (27, _M2), (31, 0)):
        np.right_shift(x, np.uint64(shift), out=tmp)
        x ^= tmp
        if mult:
            x *= np.uint64(mult)
    return x


def _mix64_np(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    return _mix64_into(x, np.empty_like(x))


def _draw_into(seed: int, first_trial: int, x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill the (slots, n) uint64 `x` with the draws of trials first_trial .. first_trial + n - 1,
    one row a slot; `tmp`, of x's shape, is scratch."""
    trials = np.arange(first_trial, first_trial + x.shape[1], dtype=np.uint64)
    base = _mix64_np(np.uint64(seed) ^ (trials + np.uint64(1)) * np.uint64(_C1))
    slot_keys = np.arange(1, len(x) + 1, dtype=np.uint64) * np.uint64(_C2)
    np.bitwise_xor(base, slot_keys[:, None], out=x)
    return _mix64_into(x, tmp)


def sample_distinct(
    seed: int, first_trial: int, n_trials: int, count: int, population: int
) -> np.ndarray:
    """(n_trials, count) int64 distinct indices per row, uniform over ordered selections.

    Sequential sampling: the s-th draw r_s is uniform on [0, population - s) and
    lands on the r_s-th value not chosen yet, so the first t entries are a
    uniform t-subset and the last entry is uniform over the complement.

    The draws r_0 .. r_{count-1} of a trial are a Lehmer code, decoded right to
    left.  After the first pick p_0 = r_0, the later draws run the same process
    on the population less p_0, which y -> y + (y >= r_0) maps in order onto
    [0, population - 1) and back.  So if the tail r_1 .. holds the picks of that
    smaller process, adding 1 to each tail entry >= r_0 gives the picks of the
    whole one.  Applying this for s = count-2 down to 0 to the tail after slot s
    decodes every trial with one compare and one add per (slot, tail entry), and
    no sorted prefix.  Every value stays below the population, so the decode runs
    in the narrowest of int16, int32 and int64 that holds it.

    The trials go through in blocks of about `errors.BLOCK_WORDS` draws, slot-major,
    in buffers that stay in cache.  Each slot takes u mod (population - s) as
    u - (u // m) * m with its one scalar divisor m, which numpy divides faster than it
    takes a remainder.  The result is a transposed view of the (count, n_trials) layout.
    """
    if count > population:
        raise InputError(f"cannot draw {count} distinct from {population}")
    narrow = np.int16 if population <= 1 << 15 else np.int32 if population <= 1 << 31 else np.int64
    out = np.empty((count, n_trials), dtype=np.int64)
    divisors = np.arange(population, population - count, -1, dtype=np.uint64)
    step = max(1, min(n_trials, errors.BLOCK_WORDS // max(count, 1)))  # trials per block
    x = np.empty((count, step), dtype=np.uint64)
    tmp, picks, hit = np.empty_like(x), np.empty(x.shape, dtype=narrow), np.empty(x.shape, dtype=bool)
    for lo in range(0, n_trials, step):
        n = min(step, n_trials - lo)
        if n < step:  # the last, shorter block: contiguous buffers of its own width
            x, tmp, picks, hit = (np.empty((count, n), dtype=a.dtype) for a in (x, tmp, picks, hit))
        _draw_into(seed, first_trial + lo, x, tmp)
        for s in range(count):
            np.floor_divide(x[s], divisors[s], out=tmp[s])
        tmp *= divisors[:, None]
        x -= tmp
        picks[...] = x
        for s in range(count - 2, -1, -1):
            tail = picks[s + 1 :]
            np.greater_equal(tail, picks[s], out=hit[: len(tail)])
            tail += hit[: len(tail)]
        out[:, lo : lo + n] = picks
    return out.T
