"""Small bundled matrices used by the verification suite and the tests.

Everything here is desk scale: exact enumeration, spectra, and bounds all
run in seconds, so these instances anchor the bound-dominance and decoding
soundness checks.
"""

from __future__ import annotations

from .codes import ConstantWeightCode, load_design, kautz_singleton, rs_code
from .errors import InputError
from .galois import Field, check_order, prime_power

FANO_BLOCKS = (
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
)


def fano() -> ConstantWeightCode:
    """The 7-point projective plane: unique 2-(7,3,1) design, strength 2."""
    return load_design(FANO_BLOCKS)


def path() -> ConstantWeightCode:
    """The four edges of the path 3-1-0-2-4, as weight-2 columns: a probe is covered exactly when
    it is an inner edge, so the exact violation probability is 0, 1/6 and 1/2 at t = 1, 2 and 3."""
    return load_design([(0, 1), (0, 2), (1, 3), (2, 4)], length=5)


def disjoint_pair() -> ConstantWeightCode:
    """Two disjoint weight-2 supports: t-disjunct for every t."""
    return load_design([(0, 1), (2, 3)], length=4)


def ks_rs(q: int, k: int):
    """Kautz-Singleton image of the Reed-Solomon code of dimension k over GF(q)."""
    check_order(q)
    pm = prime_power(q)
    if pm is None:
        raise InputError(f"q={q} is not a prime power")
    return kautz_singleton(rs_code(Field(*pm), k))


def bundled() -> dict[str, ConstantWeightCode]:
    """Name -> matrix map of every bundled instance, in deterministic order."""
    return {
        "fano": fano(),
        "path": path(),
        "disjoint-pair": disjoint_pair(),
        "ks-rs-5-2": ks_rs(5, 2),
        "ks-rs-8-3": ks_rs(8, 3),
    }
