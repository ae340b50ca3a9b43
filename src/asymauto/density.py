"""Exact prefix counting: discrepancy profiles, density estimates, verdicts.

Everything here is an exact count at explicit finite checkpoints; nothing
claims a limit.  One type holds such counts, `DiscrepancyProfile`: the
disagreements of two sequences, or the ones of an indicator (a density
estimate).  A profile plus a declared verdict policy is the strongest
statement the package makes.  Scans run chunk by chunk over uint64 blocks and
counts are additive over disjoint chunks, so an optional thread pool (size
from ASYMAUTO_THREADS, at most the cpu count) changes nothing about result
order or totals.
"""

from __future__ import annotations

import enum
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import RangeError
from .seqlib import Sequence

_SCAN_CHUNK = 1 << 18


def _workers() -> int:
    """Threads of the scan pool: ASYMAUTO_THREADS, clamped to [1, cpu count]."""
    try:
        wanted = int(os.environ.get("ASYMAUTO_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(wanted, os.cpu_count() or 1))


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
    def geometric(cls, first: int, last: int, ratio: int = 2) -> "Checkpoints":
        """first, first*ratio, ... capped and finished at last."""
        if ratio < 2:
            raise ValueError(f"ratio must be >= 2, got {ratio}")
        if first < 1:
            raise ValueError(f"first checkpoint must be >= 1, got {first}")
        first = min(first, last)
        vals = []
        v = first
        while v < last:
            vals.append(v)
            v *= ratio
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


DEFAULT_CHECKPOINTS = Checkpoints.geometric(1 << 10, 1 << 20)


def _chunked_prefix_counts(count_chunk, cps: Checkpoints) -> tuple:
    """Cumulative counts at each checkpoint; count_chunk(lo, hi) is exact."""
    spans = []
    prev = 0
    for n in cps:
        for lo in range(prev, n, _SCAN_CHUNK):
            spans.append((lo, min(lo + _SCAN_CHUNK, n)))
        prev = n
    workers = _workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            span_counts = list(pool.map(lambda s: count_chunk(*s), spans))
    else:
        span_counts = [count_chunk(lo, hi) for lo, hi in spans]
    counts = []
    total = 0
    i = 0
    for n in cps:
        while i < len(spans) and spans[i][1] <= n:
            total += span_counts[i]
            i += 1
        counts.append(total)
    return tuple(counts)


def prefix_counts(mism: np.ndarray, cps: Checkpoints) -> tuple:
    """Nonzero entries of mism[:n] for each checkpoint n, in one pass over mism."""
    counts = []
    total = prev = 0
    for n in cps:
        total += int(np.count_nonzero(mism[prev:n]))
        counts.append(total)
        prev = n
    return tuple(counts)


def sequence_values(f: Sequence, n: int, chunk: int = _SCAN_CHUNK) -> np.ndarray:
    """Value table of f on [0, n) as uint8."""
    out = np.empty(n, dtype=np.uint8)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        out[lo:hi] = f.values(lo, hi - lo)
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
    different order are remapped, any other pair is rejected.
    """
    remap = _label_map(f, g)

    def count_chunk(lo, hi):
        fv = f.values(lo, hi - lo)
        if remap is not None:
            fv = remap[fv]
        return int(np.count_nonzero(fv != g.values(lo, hi - lo)))

    counts = _chunked_prefix_counts(count_chunk, cps)
    return DiscrepancyProfile(f.name, g.name, cps, counts)


class Verdict(enum.Enum):
    EQUAL = "Equal"
    DISTINCT = "Distinct"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class VerdictPolicy:
    """Decision thresholds: final fraction vs tau, decay factor rho."""

    tau: float = 1e-3
    rho: float = 1.2


def verdict(profile: DiscrepancyProfile, policy: VerdictPolicy = VerdictPolicy()) -> Verdict:
    """Equal when the tail is small and shrinking, Distinct when it is flat-high.

    Needs at least three checkpoints.  The package never claims a limit; this
    is a finite-scale reading under the declared policy.
    """
    fr = profile.fractions
    if len(fr) < 3:
        raise ValueError("verdict needs at least 3 checkpoints")
    f3, f2, f1 = fr[-3], fr[-2], fr[-1]
    if f1 <= policy.tau and f3 >= policy.rho * f2 and f2 >= policy.rho * f1:
        return Verdict.EQUAL
    if min(f3, f2, f1) >= 10 * policy.tau:
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

    def count_chunk(lo, hi):
        return int(np.count_nonzero(indicator.values(lo, hi - lo) == one))

    return DiscrepancyProfile(indicator.name, "1", cps, _chunked_prefix_counts(count_chunk, cps))


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


def _popcount(bits: np.ndarray) -> int:
    total = 0
    step = 1 << 20
    for lo in range(0, len(bits), step):
        total += int(np.bitwise_count(bits[lo : lo + step]).sum(dtype=np.int64))
    return total


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
    bit_budget: int = 1 << 31,
) -> UnionDensityResult:
    """Exact coverage of union over a < gamma of (m * k**a * N0 + [k**delta, k**(a-delta))).

    Counts every integer in [0, k**nu) the union covers, by marking a packed
    bitset, and compares the exact fraction against the analytic floor
    1 - (1-p)**(floor(gamma/3) - 1) with p = (floor(k/m)-1)(k-1)/k**3.  Only
    the normalized regime is accepted: for m >= k/2 or delta != 1, first
    replace k by a power k**lam large enough that m < k/2 and delta can be
    taken as 1, then rerun.
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
    total = k**nu
    if total > bit_budget:
        raise RangeError(f"k**nu = {total} exceeds the scan budget {bit_budget}")

    bits = np.zeros((total + 7) // 8, dtype=np.uint8)
    low = k**delta
    for a in range(gamma):
        if a <= 2 * delta:
            continue  # offset interval [k**delta, k**(a-delta)) is empty
        high = k ** (a - delta)
        step = m * k**a
        for start in range(0, total, step):
            x = start + low
            y = min(start + high, total)
            if x < y:
                _mark_range(bits, x, y)

    covered = _popcount(bits)
    p = Fraction((k // m - 1) * (k - 1), k**3)
    bound = 1 - (1 - p) ** (gamma // 3 - 1)
    return UnionDensityResult(k, m, delta, gamma, nu, covered, total, p, bound)
