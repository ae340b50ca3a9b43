"""Base-k digit words and exact word/integer conversions.

Words store their digits most significant first.  The empty word encodes 0;
canonical expansions never carry a leading zero.  All integer values are kept
below 2**63: conversions that would leave that range raise RangeError instead
of silently wrapping, because wrapped indices would corrupt density counts
downstream.

A word holds its digits in one private container: a `bytes` string of digit
values (not characters) for bases up to 256, a tuple above that; both iterate,
index, concatenate and compare as sequences of ints.  `Word.digits` is a tuple
view of it.  Expansion in bases up to 64 peels a chunk of digits per `divmod`
and joins the chunks' digit strings, read from a table built on a base's first
use; `value` parses through `int(text, k)` for bases up to 36 and words of at
most 640 digits.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys

from .errors import RangeError

INT_LIMIT = 1 << 63

_DIGIT_CHARS = b"0123456789abcdefghijklmnopqrstuvwxyz"
_TO_CHAR = bytes.maketrans(bytes(range(len(_DIGIT_CHARS))), _DIGIT_CHARS)
_PARSE_MAX = sys.int_info.str_digits_check_threshold  # int(text, k) may refuse longer text
_CHUNK_BASE_MAX = 64
_CHUNK_LIMIT = 1 << 12
_BYTES_BASE_MAX = 256


class Word:
    """A finite digit string over {0, .., base-1}, most significant first."""

    __slots__ = ("base", "_raw")

    def __init__(self, base: int, digits):
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        digits = tuple(map(operator.index, digits))  # a non-integer digit is a TypeError in every base
        for d in digits:
            if not 0 <= d < base:
                raise ValueError(f"digit {d} out of range for base {base}")
        self.base = base
        self._raw = _pack(base, digits)

    @property
    def digits(self) -> tuple:
        """The digits as a tuple of ints, most significant first."""
        return tuple(self._raw)

    def __len__(self) -> int:
        return len(self._raw)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.base == other.base
            and self._raw == other._raw
        )

    def __hash__(self) -> int:
        return hash((self.base, self._raw))

    def text(self, empty: str = "ε") -> str:
        """Render digits; bases above 10 use comma-separated digit lists."""
        if not self._raw:
            return empty
        if self.base <= 10:
            return self._raw.translate(_TO_CHAR).decode()
        return ",".join(map(str, self._raw))

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Word(base={self.base}, '{self.text()}')"


def _pack(base: int, digits):
    """The container a base-`base` word keeps its digits in."""
    return bytes(digits) if base <= _BYTES_BASE_MAX else tuple(digits)


def _word(base: int, raw) -> Word:
    # fast path for canonical constructors; skips per-digit validation
    w = object.__new__(Word)
    w.base = base
    w._raw = raw
    return w


def expand(n: int, k: int) -> Word:
    """Canonical base-k expansion of n; 0 expands to the empty word."""
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= INT_LIMIT:
        raise RangeError(f"n = {n} exceeds the 2**63 range")
    return _word(k, _raw(n, k))


def _raw(n: int, k: int):
    """The digit container of the canonical base-k expansion of a nonnegative n."""
    if k <= _CHUNK_BASE_MAX:
        size, padded, top = _chunk_table(k)
        if n < size:
            return top[n]
        chunks = []
        while n >= size:
            n, r = divmod(n, size)
            chunks.append(padded[r])
        chunks.append(top[n])
        chunks.reverse()
        return b"".join(chunks)
    digits = []
    while n:
        n, d = divmod(n, k)
        digits.append(d)
    digits.reverse()
    return _pack(k, digits)


@functools.cache
def _chunk_table(k: int):
    """(k**m, padded, top) for the largest m with k**m <= _CHUNK_LIMIT.

    padded[r] is the length-m expansion of r and top[r] its canonical one.
    """
    m = 1
    while k ** (m + 1) <= _CHUNK_LIMIT:
        m += 1
    padded = [bytes(p) for p in itertools.product(range(k), repeat=m)]
    top = [p.lstrip(b"\0") for p in padded]
    return k**m, padded, top


def expand_padded(n: int, k: int, alpha: int) -> Word:
    """Length-alpha expansion of n mod k**alpha, padded with leading zeros."""
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if alpha < 0:
        raise ValueError(f"length must be nonnegative, got {alpha}")
    raw = _raw(n % k**alpha, k)
    return _word(k, _pack(k, bytes(alpha - len(raw))) + raw)


def value(u: Word) -> int:
    """The integer a word stands for; rejects results at or above 2**63."""
    k, raw = u.base, u._raw
    if k <= 36 and 0 < len(raw) <= _PARSE_MAX:
        v = int(raw.translate(_TO_CHAR), k)
    else:
        v = 0
        for d in raw:
            v = v * k + d
    if v >= INT_LIMIT:
        raise RangeError(f"word value {v} exceeds the 2**63 range")
    return v


def concat(u: Word, v: Word) -> Word:
    """Concatenation uv; both words must share a base."""
    if u.base != v.base:
        raise ValueError(f"base mismatch: {u.base} vs {v.base}")
    return _word(u.base, u._raw + v._raw)
