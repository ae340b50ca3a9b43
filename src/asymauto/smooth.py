"""Ordered enumeration of 3-smooth numbers 2**a * 3**b and gap diagnostics.

A table is the tuple of its `SmoothEntry` rows, produced by the classic
two-pointer merge of the doubling and tripling ladders.  `first_smooth` and
`enumerate_smooth` check a bound on its value bytes against the package's one
budget before the merge runs.  Entries are plain Python integers: gap
statistics over index windows in the thousands need values far beyond 64
bits, and exactness matters more than word size here.  Gap ratios are reported
as exact integer pairs; decimals are presentation only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import RangeError, check_budget


@dataclass(frozen=True, slots=True)
class SmoothEntry:
    """One table row: value = 2**alpha * 3**beta exactly."""

    value: int
    alpha: int
    beta: int

    @property
    def parity(self) -> int:
        return (self.alpha + self.beta) & 1


def _merge(stop) -> tuple:
    """Two-pointer ladder merge; `stop(candidate, count)` ends the run."""
    entries = [SmoothEntry(1, 0, 0)]
    i2 = i3 = 0
    while True:
        e2, e3 = entries[i2], entries[i3]
        c2 = 2 * e2.value
        c3 = 3 * e3.value
        if c2 <= c3:
            nxt = SmoothEntry(c2, e2.alpha + 1, e2.beta)
        else:
            nxt = SmoothEntry(c3, e3.alpha, e3.beta + 1)
        if stop(nxt.value, len(entries)):
            return tuple(entries)
        entries.append(nxt)
        if nxt.value == c2:
            i2 += 1
        if nxt.value == c3:
            i3 += 1


def first_smooth(count: int) -> tuple:
    """The first `count` 3-smooth numbers, increasing, with exponents."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    check_budget(first_bytes(count), "bytes", f"3-smooth table of the first {count} entries")
    return _merge(lambda v, n: n >= count)


def enumerate_smooth(limit: int) -> tuple:
    """All 3-smooth numbers <= limit, increasing, with exponents."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    check_budget(limit_bytes(limit), "bytes", f"3-smooth table up to {limit}")
    return _merge(lambda v, _: v > limit)


def first_bytes(count: int) -> int:
    """An upper bound on the value bytes of `first_smooth(count)`.

    With s = isqrt(count), the (s + 1)**2 > count pairs (a, b) with
    a + 2b <= 2s give values 2**a 3**b <= 2**(2s), so each of the first
    `count` entries has at most 2s + 1 bits.  The bound counts value bytes
    only, not the `SmoothEntry` objects that hold them.
    """
    if count < 1:
        return 0
    return count * ((2 * math.isqrt(count) + 8) // 8)


def limit_bytes(limit: int) -> int:
    """An upper bound on the value bytes of `enumerate_smooth(limit)`.

    At most (floor(log2 L) + 1)(floor(log3 L) + 1) entries, each of at most
    L's bit length.
    """
    threes, power = 0, 1
    while power <= limit:
        threes, power = threes + 1, 3 * power
    return limit.bit_length() * threes * ((limit.bit_length() + 7) // 8)


@dataclass(frozen=True)
class RatioProfile:
    """Maximum consecutive-gap ratio over an index window, exact and decimal."""

    i_min: int
    i_max: int
    argmax: int
    numerator: int
    denominator: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @property
    def decimal(self) -> float:
        return self.numerator / self.denominator


def ratio_profile(table: tuple, i_min: int, i_max: int) -> RatioProfile:
    """Max of H_{i+1}/H_i over i in [i_min, i_max); needs entry i_max present."""
    if not 0 <= i_min < i_max:
        raise ValueError(f"empty or invalid index window [{i_min}, {i_max})")
    if i_max > len(table) - 1:
        raise ValueError(
            f"window end {i_max} needs {i_max + 1} entries, table has {len(table)}"
        )
    # max keeps the first of equal ratios
    arg = max(range(i_min, i_max), key=lambda i: Fraction(table[i + 1].value, table[i].value))
    best = Fraction(table[arg + 1].value, table[arg].value)
    return RatioProfile(i_min, i_max, arg, best.numerator, best.denominator)


@dataclass(frozen=True)
class GapPair:
    """Exponents with 1 < ratio < 1+t; ratio is num/den in lowest terms."""

    gamma: int
    delta: int
    numerator: int
    denominator: int


@dataclass(frozen=True)
class KroneckerGaps:
    """Exponent pairs squeezing powers of 2 against powers of 3 within (1, 1+t).

    `two_side` lists pairs with 1 < 2**gamma / 3**delta < 1+t ordered by
    gamma; `three_side` lists pairs with 1 < 3**delta / 2**gamma < 1+t
    ordered by delta.  The heads of the two lists are the smallest-gamma and
    smallest-delta pairs.
    """

    tolerance: Fraction
    cap: int
    two_side: tuple
    three_side: tuple

    @property
    def smallest_gamma(self) -> GapPair:
        return self.two_side[0]

    @property
    def smallest_delta(self) -> GapPair:
        return self.three_side[0]


def kronecker_gap(t, cap: int = 64) -> KroneckerGaps:
    """Exhaustive scan for exponent pairs with gap ratio inside (1, 1+t).

    Comparisons are exact: t is taken as a rational and both inequalities are
    settled by integer cross-multiplication.  Raises RangeError when a side
    has no pair with exponents <= cap.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError(f"tolerance must be positive, got {t}")
    bound = 1 + t
    num, den = bound.numerator, bound.denominator
    pow2 = [1 << g for g in range(cap + 1)]
    pow3 = [3**d for d in range(cap + 1)]
    # each side is built in the order it is reported: by gamma, and by delta
    two_side = [GapPair(g, d, p2, p3) for g, p2 in enumerate(pow2) for d, p3 in enumerate(pow3)
                if p3 < p2 and p2 * den < p3 * num]
    three_side = [GapPair(g, d, p3, p2) for d, p3 in enumerate(pow3) for g, p2 in enumerate(pow2)
                  if p2 < p3 and p3 * den < p2 * num]
    if not two_side or not three_side:
        raise RangeError(f"no exponent pair within cap {cap} for tolerance {t}")
    return KroneckerGaps(t, cap, tuple(two_side), tuple(three_side))


def kronecker_to_json(gaps: KroneckerGaps) -> str:
    """Both sides' pairs as {gamma, delta, num, den} objects, sorted keys."""

    def pairs(side):
        return [
            {"gamma": p.gamma, "delta": p.delta, "num": p.numerator, "den": p.denominator}
            for p in side
        ]

    obj = {
        "tolerance": str(gaps.tolerance),
        "cap": gaps.cap,
        "two_side": pairs(gaps.two_side),
        "three_side": pairs(gaps.three_side),
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def table_to_csv(table: tuple):
    """CSV rows index,H,alpha,beta,ratio_to_next (last ratio left empty), one at a time."""
    yield "index,H,alpha,beta,ratio_to_next\n"
    for i in range(len(table)):
        e = table[i]
        if i + 1 < len(table):
            ratio = repr(table[i + 1].value / e.value)
        else:
            ratio = ""
        yield f"{i},{e.value},{e.alpha},{e.beta},{ratio}\n"
