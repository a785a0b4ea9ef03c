"""Counter-based randomness for replayable Monte Carlo.

Every random draw is a pure function of (seed, trial, slot), so trial loops
can be chunked or parallelized any way at all and still produce identical
results:

    u(seed, trial, slot) = mix(mix(seed ^ (trial+1)*C1) ^ (slot+1)*C2)

where mix is the splitmix64 finalizer.  Uniform integers below m are taken
as u % m; the bias is below m / 2^64 (< 1e-13 for every population size
used here) and is documented rather than rejected away so each trial
consumes a fixed number of counter slots.
"""

from __future__ import annotations

import numpy as np

_C1 = 0x9E3779B97F4A7C15
_C2 = 0xC2B2AE3D27D4EB4F
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix64_np(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_M1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_M2)
    x ^= x >> np.uint64(31)
    return x


def draw_block(seed: int, first_trial: int, n_trials: int, slots: int) -> np.ndarray:
    """(n_trials, slots) uint64 counter values; row t is trial first_trial + t."""
    trials = np.arange(first_trial, first_trial + n_trials, dtype=np.uint64)
    base = _mix64_np(np.uint64(seed) ^ (trials + np.uint64(1)) * np.uint64(_C1))
    slot_keys = (np.arange(1, slots + 1, dtype=np.uint64)) * np.uint64(_C2)
    return _mix64_np(base[:, None] ^ slot_keys[None, :])


def sample_distinct(
    seed: int, first_trial: int, n_trials: int, count: int, population: int
) -> np.ndarray:
    """(n_trials, count) distinct indices per row, uniform over ordered selections.

    Sequential sampling: the s-th draw r is uniform on [0, population - s) and
    lands on the r-th value not chosen yet, so the first t entries are a
    uniform t-subset and the last entry is uniform over the complement.

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
