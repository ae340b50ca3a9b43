"""Exact prefix counting: discrepancy profiles, density estimates, verdicts.

Everything here is an exact count at explicit finite checkpoints; nothing
claims a limit.  One type holds such counts, `DiscrepancyProfile`: the
disagreements of two sequences, or the ones of an indicator (a density
estimate).  A profile plus a declared verdict policy is the strongest
statement the package makes.  Every count at checkpoints, the kernel's
pairwise matrix included, is summed by one serial scan, `prefix_counts`, chunk
by chunk, so its working memory does not grow with N.  `value_blocks` checks a
range against the package's one budget (`errors.check_budget`) when it is
called, and the value tables and `eval` read their values through it.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BUDGET, RangeError, check_budget
from .seqlib import Sequence

_SCAN_CHUNK = 1 << 18


@dataclass(frozen=True)
class Checkpoints:
    """Strictly increasing prefix lengths N_1 < ... < N_m."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("checkpoint schedule must be nonempty")
        prev = 0
        for v in self.values:
            if v <= prev:
                raise ValueError(f"checkpoints must be strictly increasing, got {self.values}")
            prev = v

    @classmethod
    def geometric(cls, first: int, last: int) -> "Checkpoints":
        """first, 2*first, 4*first, ... below last, then last; first is clamped to last."""
        if first < 1:
            raise ValueError(f"first checkpoint must be >= 1, got {first}")
        if last < 1:
            raise ValueError(f"last checkpoint must be >= 1, got {last}")
        vals = []
        v = min(first, last)
        while v < last:
            vals.append(v)
            v *= 2
        vals.append(last)
        return cls(tuple(vals))

    @property
    def final(self) -> int:
        return self.values[-1]

    @property
    def ratio_cap(self) -> float:
        """max N_{i+1}/N_i (1.0 for one checkpoint), the lambda of the sandwich bound."""
        return max([1.0] + [b / a for a, b in zip(self.values, self.values[1:])])

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def prefix_counts(count, cps: Checkpoints) -> tuple:
    """Cumulative count(0, n) for each checkpoint n, scanned in chunks of at most _SCAN_CHUNK.

    Each span between checkpoints is cut into chunks made as the scan reaches
    them, and count(lo, hi) is called once per chunk, so memory does not grow
    with N.  Counts may be ints or numpy arrays; each checkpoint gets its own total.
    """
    counts = []
    total = prev = 0
    for n in cps:
        for lo in range(prev, n, _SCAN_CHUNK):
            total = total + count(lo, min(lo + _SCAN_CHUNK, n))  # not +=, which would share one array
        counts.append(total)
        prev = n
    return tuple(counts)


def value_blocks(f: Sequence, n: int, start: int = 0):
    """f on [start, start + n) as (offset, uint8 block) pairs of at most _SCAN_CHUNK terms.

    The range is refused over the budget when this is called, before any block.
    Each block is evaluated when it is reached, so a leaf's working words
    never outgrow one block.
    """
    check_budget(n, "bytes", f"value table of {f.name} on [{start}, {start + n})")
    return ((lo, f.values(start + lo, min(_SCAN_CHUNK, n - lo))) for lo in range(0, n, _SCAN_CHUNK))


def sequence_values(f: Sequence, n: int, start: int = 0) -> np.ndarray:
    """Value table of f on [start, start + n) as uint8, refused over the budget."""
    blocks = value_blocks(f, n, start)  # the budget check, before the table is allocated
    out = np.empty(n, dtype=np.uint8)
    for lo, block in blocks:
        out[lo : lo + len(block)] = block
    return out


@dataclass(frozen=True)
class DiscrepancyProfile:
    """Exact counts at a checkpoint schedule.

    From `discrepancy_profile`: positions where `left` and `right` disagree.
    From `density_estimate`: positions where the indicator `left` is labeled
    `right` ("1").
    """

    left: str
    right: str
    checkpoints: Checkpoints
    counts: tuple

    @property
    def fractions(self) -> tuple:
        return tuple(c / n for c, n in zip(self.counts, self.checkpoints))

    def to_csv(self) -> str:
        rows = ["N,count,fraction"]
        for n, c in zip(self.checkpoints, self.counts):
            rows.append(f"{n},{c},{repr(c / n)}")
        return "\n".join(rows) + "\n"

    def to_json(self) -> str:
        obj = {
            "left": self.left,
            "right": self.right,
            "checkpoints": list(self.checkpoints.values),
            "counts": list(self.counts),
            "fractions": list(self.fractions),
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _label_map(f: Sequence, g: Sequence):
    """Table taking f's symbol indices to g's index of the same label, or None."""
    if f.alphabet == g.alphabet:
        return None
    if sorted(f.alphabet) != sorted(g.alphabet):
        raise ValueError(f"alphabet mismatch: {f.alphabet} vs {g.alphabet}")
    return np.array([g.alphabet.index(lab) for lab in f.alphabet], dtype=np.uint8)


def discrepancy_profile(f: Sequence, g: Sequence, cps: Checkpoints) -> DiscrepancyProfile:
    """Exact |{n < N_j : f(n) != g(n)}| for each checkpoint, by full scan.

    Symbols are compared by label: alphabets holding the same labels in a
    different order are remapped, any other pair is rejected.  A side that
    cannot reach N_final - 1 fails before the scan.
    """
    remap = _label_map(f, g)
    for side in (f, g):
        side.values(cps.final - 1, 1)  # past coverage or 2**63: fail at once, naming N - 1

    def count(lo, hi):
        fv = f.values(lo, hi - lo)
        if remap is not None:
            fv = remap[fv]
        return int(np.count_nonzero(fv != g.values(lo, hi - lo)))

    return DiscrepancyProfile(f.name, g.name, cps, prefix_counts(count, cps))


class Verdict(enum.Enum):
    EQUAL = "Equal"
    DISTINCT = "Distinct"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class VerdictPolicy:
    """Decision thresholds: final fraction vs tau > 0, decay factor rho > 1."""

    tau: float = 1e-3
    rho: float = 1.2

    def __post_init__(self):
        for name, x in (("tau", self.tau), ("rho", self.rho)):
            if not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.rho <= 1:
            raise ValueError(f"rho must exceed 1, got {self.rho}")


# a verdict reads the fractions at the last three checkpoints
VERDICT_CHECKPOINTS = 3


def check_verdict_schedule(cps: Checkpoints) -> None:
    """ValueError unless a verdict can read `cps`; a command checks it before its scan."""
    if len(cps) < VERDICT_CHECKPOINTS:
        raise ValueError(f"verdict needs at least {VERDICT_CHECKPOINTS} checkpoints")


def verdict(profile: DiscrepancyProfile, policy: VerdictPolicy = VerdictPolicy()) -> Verdict:
    """Equal when the tail is small and shrinking, Distinct when it is flat-high.

    Needs `VERDICT_CHECKPOINTS` checkpoints.  The fractions, and tau and rho as
    the decimals they print as, are compared exactly.  The package never claims
    a limit; this is a finite-scale reading under the declared policy.
    """
    check_verdict_schedule(profile.checkpoints)
    tail = zip(profile.counts[-3:], profile.checkpoints.values[-3:])
    f3, f2, f1 = (Fraction(c, n) for c, n in tail)
    tau, rho = Fraction(str(policy.tau)), Fraction(str(policy.rho))
    if f1 <= tau and f3 >= rho * f2 and f2 >= rho * f1:
        return Verdict.EQUAL
    if min(f3, f2, f1) >= 10 * tau:
        return Verdict.DISTINCT
    return Verdict.INCONCLUSIVE


def density_estimate(indicator: Sequence, cps: Checkpoints) -> DiscrepancyProfile:
    """Positions labeled "1" in each prefix of a binary indicator.

    The min and max of `.fractions` are finite stand-ins for the lower and
    upper density; along a sparse schedule the caller applies the sandwich
    bound with `cps.ratio_cap`.
    """
    if len(indicator.alphabet) != 2 or "1" not in indicator.alphabet:
        raise ValueError(
            f"density_estimate needs a binary alphabet with a label \"1\", got {indicator.alphabet}"
        )
    one = indicator.alphabet.index("1")
    indicator.values(cps.final - 1, 1)  # past coverage or 2**63: fail at once, naming N - 1

    def count(lo, hi):
        return int(np.count_nonzero(indicator.values(lo, hi - lo) == one))

    return DiscrepancyProfile(indicator.name, "1", cps, prefix_counts(count, cps))


# ---------------------------------------------------------------------------
# residue-class union coverage, exact marking scan
# ---------------------------------------------------------------------------


def _mark_range(bits: np.ndarray, a: int, b: int) -> None:
    """Set bit positions [a, b); bits are LSB-first within each byte."""
    if a >= b:
        return
    fb, lb = a >> 3, (b - 1) >> 3
    if fb == lb:
        bits[fb] |= ((1 << (b - a)) - 1) << (a & 7)
        return
    bits[fb] |= (0xFF << (a & 7)) & 0xFF
    bits[fb + 1 : lb] = 0xFF
    bits[lb] |= (1 << (((b - 1) & 7) + 1)) - 1


# the digits Python writes of an int by default: the floor is written as an exact
# fraction, so a longer numerator or denominator is refused
_FLOOR_DIGITS = 4300


def _union_floor(p: Fraction, gamma: int) -> Fraction:
    """1 - (1-p)**(floor(gamma/3) - 1), refused past _FLOOR_DIGITS digits before it is built."""
    e = gamma // 3 - 1
    # the denominator of (1-p)**e is at least 2**(e * (its bit length - 1)), and
    # 2**(4 * digits) is past 10**digits: the power is computed only below that
    if e * ((1 - p).denominator.bit_length() - 1) <= 4 * _FLOOR_DIGITS:
        bound = 1 - (1 - p) ** e
        if max(abs(bound.numerator), bound.denominator) < 10**_FLOOR_DIGITS:
            return bound
    raise RangeError(f"floor 1 - (1 - {p})**{e} of gamma={gamma} has more than "
                     f"{_FLOOR_DIGITS} digits to write")


@dataclass(frozen=True)
class UnionDensityResult:
    """Exact covered fraction of [0, k**nu) against the analytic floor."""

    k: int
    m: int
    delta: int
    gamma: int
    nu: int
    covered: int
    total: int
    success_p: Fraction
    bound: Fraction

    @property
    def fraction(self) -> float:
        return self.covered / self.total

    @property
    def meets_bound(self) -> bool:
        return Fraction(self.covered, self.total) >= self.bound

    def to_json(self) -> str:
        obj = {
            "k": self.k,
            "m": self.m,
            "delta": self.delta,
            "gamma": self.gamma,
            "nu": self.nu,
            "covered": self.covered,
            "total": self.total,
            "fraction": self.fraction,
            "p": f"{self.success_p.numerator}/{self.success_p.denominator}",
            "bound": f"{self.bound.numerator}/{self.bound.denominator}",
            "bound_decimal": float(self.bound),
            "meets_bound": self.meets_bound,
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def union_density_experiment(
    k: int,
    m: int,
    delta: int,
    gamma: int,
    nu: int,
) -> UnionDensityResult:
    """Exact coverage of union over a < gamma of (m * k**a * N0 + [k**delta, k**(a-delta))).

    Counts every integer in [0, k**nu) the union covers, by marking a packed
    bitset, and compares the exact fraction against the analytic floor
    1 - (1-p)**(floor(gamma/3) - 1) with p = (floor(k/m)-1)(k-1)/k**3.  Only
    the normalized regime is accepted: for m >= k/2 or delta != 1, first
    replace k by a power k**lam large enough that m < k/2 and delta can be
    taken as 1, then rerun.  A floor whose exact fraction has more than
    _FLOOR_DIGITS digits is refused (RangeError) before anything is marked.
    """
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    if m < 1 or 2 * m >= k:
        raise ValueError(
            f"modulus m={m} not normalized for k={k}: need m < k/2 "
            f"(replace k with k**lam and renormalize)"
        )
    if delta != 1:
        raise ValueError(
            f"delta={delta} not normalized: need delta = 1 "
            f"(replace k with k**lam and renormalize)"
        )
    if gamma < 0 or nu < 1:
        raise ValueError(f"need gamma >= 0 and nu >= 1, got gamma={gamma}, nu={nu}")
    what = f"union bitset of k**nu = {k}**{nu}"
    if nu >= BUDGET.bit_length():  # k**nu >= 2**nu is over: refuse before the power
        raise RangeError(f"{what}: at least 2**{nu} bits exceed the budget of {BUDGET} bits")
    total = k**nu
    check_budget(total, "bits", what)

    p = Fraction((k // m - 1) * (k - 1), k**3)
    bound = _union_floor(p, gamma)

    bits = np.zeros((total + 7) // 8, dtype=np.uint8)
    low = k**delta
    # a level a > nu has the one interval [k, min(k**(a-1), k**nu)): every level
    # past nu + 1 marks [k, k**nu) as level nu + 1 does
    for a in range(min(gamma, nu + 2)):
        if a <= 2 * delta:
            continue  # offset interval [k**delta, k**(a-delta)) is empty
        high = k ** (a - delta)
        step = m * k**a
        for start in range(0, total, step):
            x = start + low
            y = min(start + high, total)
            if x < y:
                _mark_range(bits, x, y)

    covered = int(np.bitwise_count(bits, out=bits).sum(dtype=np.int64))  # bits is not read again
    return UnionDensityResult(k, m, delta, gamma, nu, covered, total, p, bound)
