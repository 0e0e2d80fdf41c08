"""Exception types shared across the package."""

from __future__ import annotations

from decimal import Decimal


class ParseError(Exception):
    """Malformed instance or graph file. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _short(number: int) -> str:
    """The number in full, or in two significant digits (3.0e+300) past 20 digits."""
    text = str(number)
    return text if len(text) <= 20 else format(Decimal(number), ".1e")


class GuardExceeded(Exception):
    """A size guard refused to run an exponential step. Carries the offending value.

    The message abbreviates a value or limit of more than 20 digits;
    `value` and `limit` keep the exact numbers.
    """

    def __init__(self, what: str, value: int, limit: int):
        super().__init__(f"{what} = {_short(value)} exceeds guard {_short(limit)}")
        self.what = what
        self.value = value
        self.limit = limit


class GenerationError(Exception):
    """Random instance generation could not satisfy its structural constraints."""
