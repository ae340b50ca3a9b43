"""Exception types shared across the package, and the one budget of every table.

Each builder checks its own table with `check_budget` before allocating it.
"""

BUDGET = 1 << 31  # the most any one table may take, in bytes, bits or word compares


class RangeError(ValueError):
    """A value left the supported integer range (indices must stay below 2**63)."""


class CoverageError(RangeError):
    """A sequence was evaluated beyond the data it was built from."""


class ExprError(ValueError):
    """A sequence expression failed to parse; `offset` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def check_budget(size: int, unit: str, what: str) -> None:
    """RangeError when `what` needs more than the budget; call it before allocating."""
    if size > BUDGET:
        raise RangeError(f"{what}: {size} {unit} exceed the budget of {BUDGET} {unit}")
