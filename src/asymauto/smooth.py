"""Ordered enumeration of 3-smooth numbers 2**a * 3**b and gap diagnostics.

The table is produced by the classic two-pointer merge of the doubling and
tripling ladders, so it stays memory-light at any coverage.  Entries are plain
Python integers: gap statistics over index windows in the thousands need
values far beyond 64 bits, and exactness matters more than word size here.
Gap ratios are reported as exact integer pairs; decimals are presentation
only.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import RangeError


@dataclass(frozen=True)
class SmoothEntry:
    """One table row: value = 2**alpha * 3**beta exactly."""

    value: int
    alpha: int
    beta: int

    @property
    def parity(self) -> int:
        return (self.alpha + self.beta) & 1


def _merge(stop) -> list:
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
            return entries
        entries.append(nxt)
        if nxt.value == c2:
            i2 += 1
        if nxt.value == c3:
            i3 += 1


class SmoothTable:
    """Strictly increasing enumeration of {2**a 3**b}, complete up to `limit`."""

    __slots__ = ("entries", "limit")

    def __init__(self, entries, limit: int):
        self.entries = tuple(entries)
        self.limit = limit

    @classmethod
    def first(cls, count: int) -> "SmoothTable":
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        entries = _merge(lambda v, n: n >= count)
        return cls(entries, entries[-1].value)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i) -> SmoothEntry:
        return self.entries[i]

    def values(self) -> tuple:
        return tuple(e.value for e in self.entries)

    def locate(self, n: int) -> int:
        """Index i of the interval [H_i, H_{i+1}) containing n, for 1 <= n <= limit."""
        if n < 1 or n > self.limit:
            raise RangeError(f"n = {n} outside table coverage [1, {self.limit}]")
        return bisect_right(self.entries, n, key=lambda e: e.value) - 1


def enumerate_smooth(limit: int) -> SmoothTable:
    """All 3-smooth numbers <= limit, increasing, with exponents."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return SmoothTable(_merge(lambda v, _: v > limit), limit)


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


def ratio_profile(table: SmoothTable, i_min: int, i_max: int) -> RatioProfile:
    """Max of H_{i+1}/H_i over i in [i_min, i_max); needs entry i_max present."""
    if not 0 <= i_min < i_max:
        raise ValueError(f"empty or invalid index window [{i_min}, {i_max})")
    if i_max > len(table) - 1:
        raise ValueError(
            f"window end {i_max} needs {i_max + 1} entries, table has {len(table)}"
        )
    best = Fraction(0)
    arg = i_min
    for i in range(i_min, i_max):
        r = Fraction(table[i + 1].value, table[i].value)
        if r > best:
            best, arg = r, i
    return RatioProfile(i_min, i_max, arg, best.numerator, best.denominator)


@dataclass(frozen=True)
class GapPair:
    """Exponents with 1 < ratio < 1+t; ratio is num/den in lowest terms."""

    gamma: int
    delta: int
    numerator: int
    denominator: int

    @property
    def decimal(self) -> float:
        return self.numerator / self.denominator


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
    two_side = []
    three_side = []
    pow2 = [1 << g for g in range(cap + 1)]
    pow3 = [3**d for d in range(cap + 1)]
    for g in range(cap + 1):
        p2 = pow2[g]
        for d in range(cap + 1):
            p3 = pow3[d]
            if p3 < p2 and p2 * den < p3 * num:
                two_side.append(GapPair(g, d, p2, p3))
            elif p2 < p3 and p3 * den < p2 * num:
                three_side.append(GapPair(g, d, p3, p2))
    if not two_side or not three_side:
        raise RangeError(f"no exponent pair within cap {cap} for tolerance {t}")
    two_side.sort(key=lambda p: (p.gamma, p.delta))
    three_side.sort(key=lambda p: (p.delta, p.gamma))
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


def table_to_csv(table: SmoothTable) -> str:
    """CSV rows index,H,alpha,beta,ratio_to_next (last ratio left empty)."""
    rows = ["index,H,alpha,beta,ratio_to_next"]
    for i in range(len(table)):
        e = table[i]
        if i + 1 < len(table):
            ratio = repr(table[i + 1].value / e.value)
        else:
            ratio = ""
        rows.append(f"{i},{e.value},{e.alpha},{e.beta},{ratio}")
    return "\n".join(rows) + "\n"
