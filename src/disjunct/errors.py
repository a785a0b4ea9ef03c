"""Exception types shared across the package, and the one operations budget."""

import os

MAX_OPS = 10**8  # the budget when DISJUNCT_MAX_OPS is not set


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
        raise BudgetExceeded(f"{what}: {work} operations exceed budget {budget} (DISJUNCT_MAX_OPS)")
