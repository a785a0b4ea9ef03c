"""Shared fixtures and independent oracles for the test suite.

Oracles here recompute expected values through a different path than the
library (set algebra instead of bit-packing, dense mod-2 matmul instead of
syndrome words, explicit dual-code enumeration instead of transforms) so
the two sides stay independent.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from disjunct.codes import BinaryMatrix
from disjunct.galois import Field
from disjunct.instances import fano, ks_rs, nested_pair, disjoint_pair


@pytest.fixture(scope="session")
def fano_matrix():
    return fano()


@pytest.fixture(scope="session")
def toy_nested():
    return nested_pair()


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


def brute_force_pa(matrix: BinaryMatrix, t: int) -> Fraction:
    """Set-algebra recount of the exact violation probability."""
    cols = [set(s) for s in matrix.columns]
    n = len(cols)
    hits = 0
    for subset in itertools.combinations(range(n), t):
        union = set().union(*(cols[k] for k in subset))
        for j in range(n):
            if j in subset:
                continue
            if cols[j] <= union:
                hits += 1
    return Fraction(hits, comb(n, t) * (n - t))


def comp_false_positives_by_sets(columns, defectives) -> int:
    """COMP by set algebra: columns whose support lies in the defectives' union, minus the defectives."""
    union = set().union(*(columns[k] for k in defectives))
    return sum(1 for j, supp in enumerate(columns) if j not in defectives and set(supp) <= union)


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
