"""Shift-invariance profiles, periodic approximant fitting, two-base reports.

The periodic approximant of period q is fitted by per-residue majority vote
over a prefix, which is pointwise optimal among period-q candidates on that
prefix.  Reports phrase conclusions as "consistent at scale" observations
only; all the underlying statements are about limits this package can merely
sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .density import (
    VERDICT_CHECKPOINTS,
    Checkpoints,
    DiscrepancyProfile,
    Verdict,
    VerdictPolicy,
    check_verdict_schedule,
    discrepancy_profile,
    prefix_counts,
    sequence_values,
    verdict,
)
from .errors import check_budget
from .kernel import KernelQuotient, cluster_kernel, default_depth
from .seqlib import Sequence, shift

DEFAULT_MAX_SHIFT = 8
DEFAULT_MAX_PERIOD = 64


@dataclass(frozen=True)
class ShiftProfile:
    """Discrepancy of f against its m-fold shift, with the policy verdict."""

    m: int
    profile: DiscrepancyProfile
    verdict: Verdict


def shift_invariance(
    f: Sequence,
    m: int,
    cps: Checkpoints,
    policy: VerdictPolicy = VerdictPolicy(),
) -> ShiftProfile:
    """Profile f vs shift(f, m) and judge it under the declared policy."""
    if m < 1:
        raise ValueError(f"shift must be >= 1, got {m}")
    check_verdict_schedule(cps)
    profile = discrepancy_profile(f, shift(f, m), cps)
    return ShiftProfile(m, profile, verdict(profile, policy))


@dataclass(frozen=True)
class PeriodicFit:
    """Majority-vote period-q approximant of a sequence on [0, N_final), profiled."""

    period: int
    symbols: tuple  # fitted symbol index per residue class
    margins: tuple  # per-residue (top - runner_up) / residue_count
    profile: DiscrepancyProfile
    verdict: Verdict

    @property
    def min_margin(self) -> float:
        return min(self.margins)

    @property
    def fit_fraction(self) -> float:
        """Disagreement fraction on the fitting prefix itself."""
        return self.profile.fractions[-1]


# (residue, symbol) slots one shared count may have when periods are merged
# into a common modulus; a period alone may have more
_FIT_KEYS = 1 << 12
# bytes a fit keeps per residue: a float margin and its slot, a symbol slot and the
# symbol's digits in the profile name; tracemalloc measured 42.5 on two-three's
# sweep of the periods 1..2000 at N = 2000
_FIT_RESIDUE_BYTES = 48
# bytes per (residue, symbol) slot of a modulus, per checkpoint plus one: each
# checkpoint's int64 count, its folds into the smaller periods merged into the
# modulus, and a chunk's bincounts; tracemalloc measured 12.4 on periodic(range(256))
# for the periods 16, 8, 4, 2, 1 merged into 16 at N = 2**12 (6 checkpoints), and
# 8.1 for a period alone, read in place (q = 250..4000 at N = 2**15 and 2**16)
_COUNT_BYTES = 16


def _moduli(periods, n_sym: int) -> dict:
    """The moduli in the order they are made, each with the periods it serves.

    From the largest period down, a period joins the first modulus it divides,
    else merges into the first modulus M with lcm(M, q) * n_sym <= _FIT_KEYS,
    else starts a modulus of its own.
    """
    plan: list = []  # [modulus, the periods it serves]
    for q in sorted(set(periods), reverse=True):
        home = next((p for p in plan if p[0] % q == 0), None)
        # a modulus q does not divide exceeds q, so their lcm exceeds 2 * q
        if home is None and 2 * q * n_sym < _FIT_KEYS:
            home = next((p for p in plan if (lcm := math.lcm(p[0], q)) * n_sym <= _FIT_KEYS), None)
            if home is not None:
                home[0] = lcm
        if home is None:
            plan.append(home := [q, []])
        home[1].append(q)
    return dict(plan)


def _residue_counts(table: np.ndarray, m: int, n_sym: int, cps: Checkpoints) -> tuple:
    """Cumulative (residue mod m, symbol) counts at each checkpoint, keyed r * n_sym + s."""
    keys = np.arange(m, dtype=np.intp) * n_sym

    def count(lo, hi):
        """Counts on [lo, hi), over its (rows, m) view and the tail."""
        span_keys = np.roll(keys, -(lo % m))
        end = lo + (hi - lo) // m * m
        rows = table[lo:end].reshape(-1, m)
        counts = np.bincount((rows + span_keys).ravel(), minlength=m * n_sym)
        return counts + np.bincount(table[end:hi] + span_keys[: hi - end], minlength=m * n_sym)

    return prefix_counts(count, cps)


def _fit(f: Sequence, counts: tuple, q: int, cps: Checkpoints, policy) -> PeriodicFit:
    """The period-q fit read off its cumulative (residue, symbol) counts at each checkpoint."""
    n_sym = len(f.alphabet)
    final = counts[-1].reshape(q, n_sym)
    symbols = final.argmax(axis=1)  # ties resolve to the smallest index
    ranked = np.sort(final, axis=1)
    runner = ranked[:, -2] if n_sym > 1 else 0
    margins = (ranked[:, -1] - runner) / final.sum(axis=1)
    agree = np.arange(q) * n_sym + symbols
    profile = DiscrepancyProfile(
        f.name,
        "periodic:" + ",".join(map(str, symbols.tolist())),
        cps,
        tuple(n - int(c[agree].sum()) for n, c in zip(cps, counts)),
    )
    v = verdict(profile, policy) if len(cps) >= VERDICT_CHECKPOINTS else Verdict.INCONCLUSIVE
    return PeriodicFit(
        period=q,
        symbols=tuple(symbols.tolist()),
        margins=tuple(margins.tolist()),
        profile=profile,
        verdict=v,
    )


def _fit_moduli(f: Sequence, periods, cps: Checkpoints) -> dict:
    """The `_moduli` plan of the fits of `periods` at cps, checked before any evaluation.

    Refuses an empty sweep, the first period outside [1, cps.final], and fits
    or residue counts over the budget; the counts of the largest modulus M take
    about _COUNT_BYTES * n_sym * (len(cps) + 1) * M bytes.  A range is checked
    from its ends, without a walk over its periods.
    """
    if not periods:
        raise ValueError("no period to fit")
    if isinstance(periods, range):
        # a range is monotone with distinct periods: those inside [1, cps.final]
        # are a leading run, and the sum of all of them has a closed form
        edge = cps.final + 1 if periods.step > 0 else 0
        run = len(range(periods.start, edge, periods.step)) if 1 <= periods[0] <= cps.final else 0
        checked = periods[run : run + 1]
        ends = (periods[0], periods[-1])
        count, total, largest = len(periods), sum(ends) * len(periods) // 2, max(ends)
    else:
        checked, distinct = periods, set(periods)
        count, total, largest = len(distinct), sum(distinct), max(distinct)
    for q in checked:
        if q < 1:
            raise ValueError(f"period must be >= 1, got {q}")
        if cps.final < q:
            raise ValueError(f"fitting prefix {cps.final} shorter than period {q}")
    check_budget(_FIT_RESIDUE_BYTES * total, "bytes",
                 f"periodic fits of {count} periods up to {largest}")
    n_sym = len(f.alphabet)
    plan = _moduli(periods, n_sym)
    top = max(plan)
    check_budget(_COUNT_BYTES * n_sym * (len(cps) + 1) * top, "bytes",
                 f"residue counts of {n_sym} symbols mod {top} at {len(cps)} checkpoints")
    return plan


def periodic_fit_sweep(
    f: Sequence,
    periods,
    cps: Checkpoints,
    policy: VerdictPolicy = VerdictPolicy(),
) -> list:
    """The best period-q approximant on [0, cps.final) for each q in periods, profiled at cps.

    periods is a list or range; the result follows its order.  f is evaluated
    once, and the periods share the counts of a few moduli: one (residue mod
    M, symbol) count per modulus M, folded into each period `_moduli` has it serve.
    The fits and their counts are refused over the budget before f is evaluated.
    """
    plan = _fit_moduli(f, periods, cps)
    table = sequence_values(f, cps.final)
    n_sym = len(f.alphabet)
    fits = {}
    for m, served in plan.items():
        counts = _residue_counts(table, m, n_sym, cps)
        for q in served:
            # q = m reads the counts in place: its fold would copy every checkpoint's
            folded = counts if m == q else tuple(
                c.reshape(m // q, q * n_sym).sum(axis=0) for c in counts
            )
            fits[q] = _fit(f, folded, q, cps, policy)
        del counts, folded  # folded may be counts itself
    return [fits[q] for q in periods]


def multiplicatively_independent(k: int, l: int) -> bool:
    """True unless k and l are integer powers of one common base."""
    if k < 2 or l < 2:
        raise ValueError("bases must be >= 2")
    # powers of one base divide each other, and so do their quotients: reduce as in Euclid
    while k != l:
        k, l = min(k, l), max(k, l)
        if l % k:
            return True
        l //= k
    return False


@dataclass(frozen=True)
class CobhamReport:
    """Two-base kernel quotients plus shift and periodic-fit sweeps."""

    source: str
    base_k: int
    base_l: int
    quotient_k: KernelQuotient
    quotient_l: KernelQuotient
    shifts: tuple  # of ShiftProfile
    fits: tuple  # of PeriodicFit
    narrative: dict

    def to_json(self) -> str:
        obj = {
            "source": self.source,
            "bases": [self.base_k, self.base_l],
            "quotients": {
                str(q.base): {
                    "depth": q.depth,
                    "classes": q.class_count,
                    "classes_by_depth": list(q.classes_by_depth),
                    "finiteness": q.finiteness,
                    "tau": q.tau,
                }
                for q in (self.quotient_k, self.quotient_l)
            },
            "shifts": [
                {
                    "m": s.m,
                    "counts": list(s.profile.counts),
                    "fractions": list(s.profile.fractions),
                    "verdict": s.verdict.value,
                }
                for s in self.shifts
            ],
            "fits": [
                {
                    "q": p.period,
                    "fit_fraction": p.fit_fraction,
                    "min_margin": p.min_margin,
                    "verdict": p.verdict.value,
                }
                for p in self.fits
            ],
            "narrative": self.narrative,
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"sequence: {self.source}",
            f"bases: {self.base_k}, {self.base_l}"
            + (
                " (multiplicatively independent)"
                if self.narrative["multiplicatively_independent"]
                else " (multiplicatively dependent)"
            ),
            "",
            "kernel quotients",
            f"  {'base':>6} {'depth':>6} {'classes':>8} {'finiteness':>11}",
        ]
        for q in (self.quotient_k, self.quotient_l):
            lines.append(
                f"  {q.base:>6} {q.depth:>6} {q.class_count:>8} {q.finiteness:>11}"
            )
        lines += ["", "shift profiles", f"  {'m':>4} {'final count':>12} {'fraction':>12} {'verdict':>13}"]
        for s in self.shifts:
            lines.append(
                f"  {s.m:>4} {s.profile.counts[-1]:>12} "
                f"{s.profile.fractions[-1]:>12.6f} {s.verdict.value:>13}"
            )
        lines += ["", "periodic fits", f"  {'q':>4} {'fit fraction':>13} {'min margin':>11} {'verdict':>13}"]
        for p in self.fits:
            lines.append(
                f"  {p.period:>4} {p.fit_fraction:>13.6f} {p.min_margin:>11.6f} {p.verdict.value:>13}"
            )
        lines += ["", "summary"]
        for s in self.narrative["summary"]:
            lines.append(f"  - {s}")
        return "\n".join(lines) + "\n"


def fits_to_csv(fits) -> str:
    """CSV rows: q, discrepancy at each checkpoint, min margin."""
    if not fits:
        return "q,min_margin\n"
    header = ["q"]
    header += [f"fraction_at_{n}" for n in fits[0].profile.checkpoints]
    header.append("min_margin")
    rows = [",".join(header)]
    for p in fits:
        cells = [str(p.period)]
        cells += [repr(x) for x in p.profile.fractions]
        cells.append(repr(p.min_margin))
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def cobham_report(
    f: Sequence,
    k: int,
    l: int,
    *,
    cps: Checkpoints,
    depth_k: int | None = None,
    depth_l: int | None = None,
    tau: float = VerdictPolicy.tau,
    policy: VerdictPolicy = VerdictPolicy(),
    max_shift: int = DEFAULT_MAX_SHIFT,
    max_period: int = DEFAULT_MAX_PERIOD,
) -> CobhamReport:
    """Kernel quotients in both bases plus shift and periodic-fit sweeps.

    The narrative only reports what the finite scans show: stable small
    quotients plus an Equal shift are called "consistent with asymptotic
    shift-invariance"; all-Distinct fits are called "no periodic approximant
    found at scale".  Nothing is asserted beyond the scanned prefix.
    """
    if max_shift < 0:
        raise ValueError(f"max_shift must be nonnegative, got {max_shift}")
    if max_period < 1:
        raise ValueError(f"max_period must be >= 1, got {max_period}")
    if max_shift:
        check_verdict_schedule(cps)
    periods = range(1, max_period + 1)
    _fit_moduli(f, periods, cps)  # the fits' refusals, before the kernels scan
    if depth_k is None:
        depth_k = default_depth(k)
    if depth_l is None:
        depth_l = default_depth(l)
    quotient_k = cluster_kernel(f, k, depth_k, cps, tau)
    quotient_l = cluster_kernel(f, l, depth_l, cps, tau)
    shifts = tuple(
        shift_invariance(f, m, cps, policy) for m in range(1, max_shift + 1)
    )
    fits = tuple(periodic_fit_sweep(f, periods, cps, policy))

    indep = multiplicatively_independent(k, l)
    stable = quotient_k.finiteness == "stable" and quotient_l.finiteness == "stable"
    equal_shifts = [s.m for s in shifts if s.verdict is Verdict.EQUAL]
    all_distinct = all(p.verdict is Verdict.DISTINCT for p in fits)
    best_fit = min(fits, key=lambda p: p.fit_fraction)

    summary = [
        f"kernel quotient sizes: {quotient_k.class_count} (base {k}), "
        f"{quotient_l.class_count} (base {l})"
    ]
    if stable and equal_shifts:
        summary.append(
            f"both quotients stable and shift m={equal_shifts[0]} scans Equal: "
            "consistent at scale with asymptotic shift-invariance"
        )
    elif not stable:
        summary.append(
            "quotient class counts still grow with depth; no structural claim made"
        )
    if all_distinct:
        summary.append(
            f"no periodic approximant found at scale "
            f"(every period q <= {max_period} scans Distinct)"
        )
    else:
        summary.append(
            f"best periodic fit: q={best_fit.period} with disagreement "
            f"fraction {best_fit.fit_fraction:.6f}"
        )

    narrative = {
        "multiplicatively_independent": indep,
        "quotients_stable": stable,
        "equal_shifts": equal_shifts,
        "all_fits_distinct": all_distinct,
        "best_fit_period": best_fit.period,
        "best_fit_fraction": best_fit.fit_fraction,
        "summary": summary,
    }
    return CobhamReport(
        f.name, k, l, quotient_k, quotient_l, shifts, fits, narrative
    )
