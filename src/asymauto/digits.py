"""Base-k digit words and exact word/integer conversions.

Words store their digits most significant first.  The empty word encodes 0;
canonical expansions never carry a leading zero.  All integer values are kept
below 2**63: conversions that would leave that range raise RangeError instead
of silently wrapping, because wrapped indices would corrupt density counts
downstream.

Expansion in bases up to 64 peels a chunk of digits per `divmod`, reading
the chunk's digits from a table built once per base; `value` parses through
`int(text, k)` for bases up to 36 and words of at most 640 digits.
"""

from __future__ import annotations

import functools
import sys

from .errors import RangeError

INT_LIMIT = 1 << 63

_DIGIT_CHARS = b"0123456789abcdefghijklmnopqrstuvwxyz"
_TO_CHAR = bytes.maketrans(bytes(range(len(_DIGIT_CHARS))), _DIGIT_CHARS)
_PARSE_MAX = sys.int_info.str_digits_check_threshold  # int(text, k) may refuse longer text
_CHUNK_BASE_MAX = 64
_CHUNK_LIMIT = 1 << 12


class Word:
    """A finite digit string over {0, .., base-1}, most significant first."""

    __slots__ = ("base", "digits")

    def __init__(self, base: int, digits):
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        digits = tuple(digits)
        for d in digits:
            if not 0 <= d < base:
                raise ValueError(f"digit {d} out of range for base {base}")
        self.base = base
        self.digits = digits

    def __len__(self) -> int:
        return len(self.digits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.base == other.base
            and self.digits == other.digits
        )

    def __hash__(self) -> int:
        return hash((self.base, self.digits))

    def text(self, empty: str = "ε") -> str:
        """Render digits; bases above 10 use comma-separated digit lists."""
        if not self.digits:
            return empty
        if self.base <= 10:
            return "".join(str(d) for d in self.digits)
        return ",".join(str(d) for d in self.digits)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Word(base={self.base}, '{self.text()}')"


def _word(base: int, digits: tuple) -> Word:
    # fast path for canonical constructors; skips per-digit validation
    w = object.__new__(Word)
    w.base = base
    w.digits = digits
    return w


def expand(n: int, k: int) -> Word:
    """Canonical base-k expansion of n; 0 expands to the empty word."""
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= INT_LIMIT:
        raise RangeError(f"n = {n} exceeds the 2**63 range")
    return _word(k, _digits(n, k))


def _digits(n: int, k: int) -> tuple:
    """Canonical base-k digits of a nonnegative n, most significant first."""
    if k <= _CHUNK_BASE_MAX:
        size, padded, top = _chunk_table(k)
        if n < size:
            return top[n]
        n, r = divmod(n, size)
        digits = padded[r]
        while n >= size:
            n, r = divmod(n, size)
            digits = padded[r] + digits
        return top[n] + digits
    digits = []
    while n:
        n, d = divmod(n, k)
        digits.append(d)
    digits.reverse()
    return tuple(digits)


@functools.cache
def _chunk_table(k: int):
    """(k**m, padded, top) for the largest m with k**m <= _CHUNK_LIMIT.

    padded[r] is the length-m expansion of r and top[r] its canonical one.
    """
    m = 1
    while k ** (m + 1) <= _CHUNK_LIMIT:
        m += 1
    padded = [()]
    for _ in range(m):
        padded = [p + (d,) for p in padded for d in range(k)]
    top = [p[next((i for i, d in enumerate(p) if d), m):] for p in padded]
    return k**m, padded, top


def expand_padded(n: int, k: int, alpha: int) -> Word:
    """Length-alpha expansion of n mod k**alpha, padded with leading zeros."""
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if alpha < 0:
        raise ValueError(f"length must be nonnegative, got {alpha}")
    digits = _digits(n % k**alpha, k)
    return _word(k, (0,) * (alpha - len(digits)) + digits)


def value(u: Word) -> int:
    """The integer a word stands for; rejects results at or above 2**63."""
    k = u.base
    if k <= 36 and 0 < len(u.digits) <= _PARSE_MAX:
        v = int(bytes(u.digits).translate(_TO_CHAR), k)
    else:
        v = 0
        for d in u.digits:
            v = v * k + d
    if v >= INT_LIMIT:
        raise RangeError(f"word value {v} exceeds the 2**63 range")
    return v


def concat(u: Word, v: Word) -> Word:
    """Concatenation uv; both words must share a base."""
    if u.base != v.base:
        raise ValueError(f"base mismatch: {u.base} vs {v.base}")
    return _word(u.base, u.digits + v.digits)
