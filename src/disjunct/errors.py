"""Exception types shared across the package, the one operations budget, and the scratch sizes
that the kernels of `codes`, `measure` and `rand` share."""

import math
import os
import sys

MAX_OPS = 10**8  # the budget when DISJUNCT_MAX_OPS is not set
SCRATCH = 1 << 25  # bytes (32 MiB) per pass: a decoder chunk, a Monte Carlo chunk, a 2^w int64 cover table
BLOCK_WORDS = 1 << 16  # uint64 words (512 KiB) per block that stays in L2: decoder columns, sampler draws, overlaps


class DisjunctError(Exception):
    """Base class for all errors raised by this package."""


class BudgetExceeded(DisjunctError):
    """An enumeration or exact computation would exceed its configured budget."""


class InputError(DisjunctError):
    """Malformed parameters or input files."""


def ops_budget() -> int:
    """The operations budget: DISJUNCT_MAX_OPS, read on every call, or MAX_OPS when it is unset."""
    raw = os.environ.get("DISJUNCT_MAX_OPS")
    if raw is None:
        return MAX_OPS
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"DISJUNCT_MAX_OPS={raw!r} is not an integer") from exc


def check_budget(work: int, what: str) -> None:
    """Raise BudgetExceeded when a kernel's `work` operations, described by `what`, exceed `ops_budget()`."""
    budget = ops_budget()
    if work > budget:
        bits = int(work).bit_length()  # a count past the digit limit of int text is named by its bits
        shown = work if bits < 2000 else f"2^{bits - 1} or more"
        raise BudgetExceeded(f"{what}: {shown} operations exceed budget {budget} (DISJUNCT_MAX_OPS)")


def check_printable(bits: int, what: str) -> None:
    """Refuse `what`, whose integers lie below 2^bits, when they could pass Python's limit on the
    digits of an int written as text (`sys.get_int_max_str_digits`; 0, or an older Python, has none)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and bits > limit * math.log2(10):
        raise InputError(f"{what} gives integers of more than {limit} digits, past the limit of int text "
                         "(sys.get_int_max_str_digits)")
