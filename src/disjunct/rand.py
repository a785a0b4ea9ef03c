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
into distinct indices by the right-to-left decode of a Lehmer code.
"""

from __future__ import annotations

import numpy as np

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


def draw_block(seed: int, first_trial: int, n_trials: int, slots: int) -> np.ndarray:
    """(n_trials, slots) uint64 counter values; row t is trial first_trial + t.

    The values are laid out slot-major: the result is the transpose of a contiguous
    (slots, n_trials) array, so `draw_block(...).T` is each slot's draws, one row a slot.
    """
    trials = np.arange(first_trial, first_trial + n_trials, dtype=np.uint64)
    base = _mix64_np(np.uint64(seed) ^ (trials + np.uint64(1)) * np.uint64(_C1))
    slot_keys = np.arange(1, slots + 1, dtype=np.uint64) * np.uint64(_C2)
    x = base[None, :] ^ slot_keys[:, None]
    return _mix64_into(x, np.empty_like(x)).T


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
    in the narrowest of int16, int32 and int64 that holds it, over the slot-major
    block of `draw_block`, and the result is a transposed view of that layout.
    """
    if count > population:
        raise ValueError(f"cannot draw {count} distinct from {population}")
    x = draw_block(seed, first_trial, n_trials, count).T
    x %= np.arange(population, population - count, -1, dtype=np.uint64)[:, None]
    x = x.astype(np.int16 if population <= 1 << 15 else np.int32 if population <= 1 << 31 else np.int64)
    for s in range(count - 2, -1, -1):
        tail = x[s + 1 :]
        tail += tail >= x[s]
    return x.astype(np.int64, copy=False).T
