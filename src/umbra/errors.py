# Exception types shared across the package.
from __future__ import annotations


class UmbraError(Exception):
    """Base class for errors raised by this package."""


class PreconditionError(UmbraError, ValueError):
    """An operation was called outside its domain (bad valuation, truncation
    too small, and so on). The CLI maps these to exit code 3. A refusal for
    want of series order carries the orders ``needed`` and ``available``."""

    def __init__(self, message: str, needed=None, available=None):
        super().__init__(message)
        self.needed, self.available = needed, available


def require_order(what: str, needed, available):
    """Refuse ``what`` when it needs a series known to order ``needed`` and
    only ``available`` is known."""
    if available < needed:
        raise PreconditionError(f"{what} needs order {needed}, given {available}",
                                needed=needed, available=available)


class VerificationFailure(UmbraError):
    """An identity check that was expected to certify has failed. Carries a
    witness describing the failing point. The CLI maps these to exit code 4."""

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


class ParseError(UmbraError, ValueError):
    """A syntax or name error in an operator expression. Carries the 1-based
    position of the offending token and the set of token descriptions that
    would have been accepted there. The CLI maps these to exit code 2."""

    def __init__(self, message: str, position: int, expected: tuple = ()):
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)
        self.position = position
        self.expected = tuple(expected)
