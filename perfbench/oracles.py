"""Pinned values and independent recomputations the workloads check against.

The oracles take a different path from the library on purpose: closed
formulas and set algebra on Python sets instead of bit-packed numpy
kernels, so a bug shared by the library's kernels does not cancel out.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import combinations
from math import comb

DEFAULT_SEED = 20177

# SHA-256 content digests of the canonical matrix text (codes.matrix_text),
# and of the little-endian int32 codeword array for plain RS codes.  They do
# not depend on the seed.
DIGESTS = {
    "ks-rs q=8 k=3": "ec22aa6c5cbbf48cdb18cc03e98747e48f4cebba14c786296a01fe16802d7c6d",
    "ks-rs q=16 k=3": "4b54fe564bb5e1d9ee81bda8af2ae22acd26ef1d99f419ee13c3779dadd5698d",
    "ks-rs q=32 k=3": "c4ee215dfbedcc31834240427501f076f7caa380e495a87efcca31b87a93f45b",
    "bch-cw m=4 delta=3 w=3": "c5cc2fb5c0406671730f5d06bab3b3e0d0a499364d20ecbc3d889de999895d2a",
    "bch-cw m=5 delta=3 w=3": "3f089b749a3039af7b79cda918a4332708849c32430c2dae756a6b0ff2d6ca39",
    "bch-cw m=6 delta=3 w=3": "c8f858d6cdb3357c2ec5576247ceb867345675f69a013c69ca2250019444c2d1",
    "bch-cw m=6 delta=5 w=5": "ecb6437aef02ac1df4464e739aa240e566625b2806efe73c58dc10ba64d14083",
    "rs q=16 k=2 words": "804add0e128cf3fd66082be14c668e340832725fa0a26fd7acb7bbd3ac834225",
    "rs q=256 k=2 words": "c12f7d39c69626740bf3a58068afd26dc0b80435a5187eb41d45af5c692190d2",
}

# Exact violation probabilities; seed-independent.
EXACT_PA = {
    ("fano", 2): Fraction(0),
    ("ks-rs-4-3", 3): Fraction(2106, 13237),
    ("ks-rs-4-3", 4): Fraction(3802, 13237),
    ("ks-rs-5-2", 2): Fraction(0),
    ("ks-rs-8-3", 2): Fraction(0),
}

# Sampled outputs at DEFAULT_SEED, per size and workload: false-positive
# totals of decoding runs and violation counts of probe runs.
SEED_PINS = {
    "full": {
        "cli-ks16": {"cli probe violations": 172, "cli decode false positives": 532},
        "sample-ks": {
            "decode ks-rs q=16 k=3 t=10": 22,
            "decode ks-rs q=16 k=3 t=12": 267,
            "decode ks-rs q=16 k=3 t=16": 7062,
            "decode ks-rs q=32 k=3 t=40": 397,
            "probe ks-rs q=16 k=3 t=14": 23,
            "probe ks-rs q=16 k=3 t=16": 86,
            "probe ks-rs q=16 k=3 t=20": 679,
        },
        "build-exact": {},
    },
    "tiny": {
        "cli-ks16": {"cli probe violations": 198, "cli decode false positives": 779},
        "sample-ks": {
            "decode ks-rs q=8 k=3 t=5": 779,
            "decode ks-rs q=16 k=3 t=12": 27,
            "probe ks-rs q=8 k=3 t=6": 198,
        },
        "build-exact": {},
    },
}


def words_digest(words) -> str:
    return hashlib.sha256(words.astype("<i4").tobytes()).hexdigest()


def ks_guarantee(q: int, k: int) -> int:
    """Largest t for which KS(q, k) is t-disjunct by the pairwise argument.

    Two columns share at most k-1 points and each has weight n = q-1, so
    floor((n-1)/(k-1)) others cannot cover a column.
    """
    return (q - 2) // (k - 1)


def mds_pair_counts(q: int, n: int, k: int) -> list[int]:
    """Ordered pairs at each Hamming distance in an [n, k] MDS code over GF(q).

    The code is linear, so the counts are q^k times its weight distribution,
    which for an MDS code is A_i = C(n,i) sum_j (-1)^j C(i,j) (q^(i-d+1-j) - 1)
    with d = n - k + 1 (MacWilliams-Sloane ch. 11, Thm 6).
    """
    d = n - k + 1
    weights = [1] + [0] * n
    for i in range(d, n + 1):
        weights[i] = comb(n, i) * sum(
            (-1) ** j * comb(i, j) * (q ** (i - d + 1 - j) - 1) for j in range(i - d + 1)
        )
    return [q**k * a for a in weights]


def inclusion_exclusion_pa(columns, t: int) -> Fraction:
    """Exact violation probability by inclusion-exclusion over each probe's points.

    For probe j with support S, the t-subsets of the other columns whose
    union covers S number sum_{T <= S} (-1)^|T| C(a_T, t), where a_T counts
    the other columns that miss every point of T.
    """
    n = len(columns)
    holders: dict[int, set[int]] = {}
    for c, supp in enumerate(columns):
        for p in supp:
            holders.setdefault(p, set()).add(c)
    hits = 0
    for supp in columns:
        for r in range(len(supp) + 1):
            for pts in combinations(supp, r):
                touching = set().union(*(holders[p] for p in pts)) if pts else set()
                # the probe touches every nonempty T and is excluded from a_T
                avoid = n - len(touching) - (0 if pts else 1)
                hits += (-1) ** r * comb(avoid, t)
    return Fraction(hits, comb(n, t) * (n - t))


def probe_violations_by_sets(columns, picks) -> int:
    """Rows of picks (t defectives, then the probe) whose probe is covered."""
    sets = [frozenset(c) for c in columns]
    hits = 0
    for row in picks.tolist():
        union = set().union(*(sets[j] for j in row[:-1]))
        hits += sets[row[-1]] <= union
    return hits
