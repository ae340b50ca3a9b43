import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from asymauto import (
    Checkpoints,
    RangeError,
    Sequence,
    Verdict,
    cobham_report,
    errors,
    multiplicatively_independent,
    periodic,
    periodic_fit_sweep,
    seq_run_parity,
    seq_sqrt_parity,
    seq_two_three,
    sequence_values,
    shift_invariance,
)
from asymauto.cobham import _COUNT_BYTES, _FIT_KEYS, _fit_moduli, _moduli, fits_to_csv

from helpers import majority_by_residue_loop, moduli_by_lcm_search

CPS16 = Checkpoints.geometric(1 << 8, 1 << 16)


def test_shift_invariance_periodic():
    res = shift_invariance(periodic([0, 1]), 2, CPS16)
    assert all(c == 0 for c in res.profile.counts)
    assert res.verdict is Verdict.EQUAL
    with pytest.raises(ValueError):
        shift_invariance(periodic([0, 1]), 0, CPS16)


def test_shift_invariance_two_three():
    res = shift_invariance(seq_two_three(), 1, Checkpoints.geometric(1 << 10, 1 << 20))
    assert res.profile.counts[-1] == 104
    assert res.verdict is Verdict.EQUAL


def test_shift_invariance_sqrt_parity():
    cps = Checkpoints.geometric(1 << 10, 10**6)
    res = shift_invariance(seq_sqrt_parity(), 1, cps)
    # parity flips exactly when n+1 is a perfect square
    assert res.profile.counts[-1] == math.isqrt(10**6) == 1000
    assert res.profile.counts[-1] <= 1001
    assert res.verdict is Verdict.EQUAL


def test_periodic_fit_exact_recovery():
    (fit,) = periodic_fit_sweep(periodic([0, 1, 1]), [3], Checkpoints.geometric(1 << 10, 1 << 12))
    assert fit.symbols == (0, 1, 1)
    assert fit.profile.counts[-1] == 0
    assert fit.min_margin == 1.0
    assert fit.verdict is Verdict.EQUAL


def test_periodic_fit_two_three_resists():
    fits = periodic_fit_sweep(seq_two_three(), range(1, 17), CPS16)
    assert min(p.fit_fraction for p in fits) >= 0.1
    assert all(p.verdict is Verdict.DISTINCT for p in fits)


def test_periodic_fit_sqrt_parity_single_residue():
    n = 10**4
    (fit,) = periodic_fit_sweep(seq_sqrt_parity(), [1], Checkpoints.geometric(1 << 8, n))
    # exact count oracle: minority share of the two parities on [0, n)
    odd = sum(math.isqrt(i) & 1 for i in range(n))
    assert fit.profile.counts[-1] == min(odd, n - odd)
    assert abs(fit.fit_fraction - 0.5) < 0.02


def test_majority_fit_is_pointwise_optimal():
    # no period-q value list beats the majority vote on the fitting prefix
    n = 10**4
    for f in (seq_run_parity(), periodic([0, 1, 1, 0, 1])):
        table = sequence_values(f, n)
        for q in range(1, 5):
            (fit,) = periodic_fit_sweep(f, [q], Checkpoints((n,)))
            fit_count = fit.profile.counts[-1]
            residues = np.arange(n) % q
            for cand in itertools.product((0, 1), repeat=q):
                cand_arr = np.array(cand, dtype=np.uint8)
                count = int(np.count_nonzero(table != cand_arr[residues]))
                assert fit_count <= count


@pytest.mark.parametrize("n_sym", [2, 3, 5])
def test_fit_sweep_matches_residue_loop(n_sym):
    # a random period-997 sequence, fitted on all of [0, 7919); the spans start
    # at 1000 and the prime 5003, off a multiple of most q <= 64, so their
    # residue keys are offset
    rng = np.random.default_rng(n_sym)
    period = rng.integers(0, n_sym, 997)
    period[:n_sym] = np.arange(n_sym)
    f = periodic(period.tolist())
    cps = Checkpoints((1000, 5003, 7919))
    values = [int(period[n % 997]) for n in range(cps.final)]
    # a range, and an unsorted list with a duplicate: 64 and 12 share a modulus,
    # 35 has no multiple in the list, 7, 5 and 1 divide a modulus already chosen
    for periods in (range(1, 65), [64, 35, 5, 7, 12, 12, 1]):
        fits = periodic_fit_sweep(f, periods, cps)
        assert [fit.period for fit in fits] == list(periods)
        for q, fit in zip(periods, fits):
            symbols, margins = majority_by_residue_loop(values, q)
            assert fit.symbols == tuple(symbols) and fit.margins == tuple(margins), q
            want = tuple(sum(1 for i in range(m) if values[i] != symbols[i % q]) for m in cps)
            assert fit.profile.counts == want, q


# ranges from 1, two stepped ranges and 20 random lists of 200 periods
_PLANNED = [
    *(range(1, top + 1) for top in (1, 2, 3, 16, 64, 100, 1000, 3000)),
    range(3, 2000, 7), range(4000, 10, -13),
    *np.random.default_rng(28).integers(1, 5000, (20, 200)).tolist(),
]


@pytest.mark.parametrize("n_sym", [1, 2, 3, 5, 16, 256])
def test_fit_plan_matches_the_lcm_search(n_sym):
    # the plan keeps the search's moduli in its order, and serves each period once,
    # from a modulus it divides
    for periods in _PLANNED:
        plan = _moduli(periods, n_sym)
        assert list(plan) == moduli_by_lcm_search(periods, n_sym, _FIT_KEYS), periods
        served = [q for qs in plan.values() for q in qs]
        assert sorted(served) == sorted(set(periods))
        assert all(m % q == 0 for m, qs in plan.items() for q in qs)


def test_fit_working_memory():
    # the 1-byte value table plus one span's keys (the longest span is half
    # the prefix): no per-period copy of the prefix
    n = 1 << 20
    cps = Checkpoints.geometric(1 << 10, n)
    tracemalloc.start()
    try:
        fits = periodic_fit_sweep(periodic([0, 1, 1, 0, 1]), [1, 7, 64], cps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # q=1 votes 1; the zeros of 0,1,1,0,1 below n disagree
    assert fits[0].profile.counts[-1] == 2 * (n // 5) + (n % 5 > 0) + (n % 5 > 3)
    assert peak / n < 6, peak / n


def test_fit_fraction_capped_by_alphabet():
    for q in (1, 2, 5):
        (fit,) = periodic_fit_sweep(seq_run_parity(), [q], Checkpoints.geometric(1 << 10, 1 << 14))
        assert fit.fit_fraction <= 1 - 1 / 2


def test_shift_telescoping_bound():
    n = 1 << 16
    for f in (seq_two_three(), seq_sqrt_parity(), periodic([0, 1, 1])):
        vals = sequence_values(f, n + 9)
        c1 = int(np.count_nonzero(vals[: n + 1][:-1] != vals[1 : n + 1]))
        for q in range(1, 9):
            cq = int(np.count_nonzero(vals[:n] != vals[q : n + q]))
            assert cq <= q * c1 + q


def test_exactly_periodic_fixed_points():
    f = periodic([0, 1, 0, 1, 1])
    (fit,) = periodic_fit_sweep(f, [5], Checkpoints.geometric(1 << 10, 1 << 12))
    assert fit.profile.counts[-1] == 0
    res = shift_invariance(f, 5, CPS16)
    assert all(c == 0 for c in res.profile.counts)


def test_multiplicative_independence():
    assert multiplicatively_independent(2, 3)
    assert not multiplicatively_independent(2, 4)
    assert not multiplicatively_independent(4, 8)
    assert not multiplicatively_independent(9, 27)
    assert multiplicatively_independent(6, 12)
    # exponents past 63 and powers past 4096 bits
    assert not multiplicatively_independent(2, 2**64)
    assert not multiplicatively_independent(2**64, 2**65)
    assert not multiplicatively_independent(2**5000, 2**5001)
    assert multiplicatively_independent(2**5000, 3 * 2**5000)


def test_multiplicative_independence_matches_exponent_search():
    # k and l are powers of one base exactly when k**b == l**a for some a, b >= 1;
    # below 64, a and b need not pass 6
    for k in range(2, 64):
        for l in range(2, 64):
            dependent = any(k**b == l**a for a in range(1, 7) for b in range(1, 7))
            assert multiplicatively_independent(k, l) is not dependent, (k, l)


def test_report_two_three():
    # tau=0.25 is the scale-appropriate clustering threshold (see repo notes)
    report = cobham_report(
        seq_two_three(),
        2,
        3,
        depth_k=3,
        depth_l=2,
        cps=Checkpoints.geometric(1 << 10, 1 << 18),
        tau=0.25,
        max_shift=2,
        max_period=16,
    )
    assert report.quotient_k.class_count == 2
    assert report.quotient_l.class_count == 2
    assert report.narrative["quotients_stable"] is True
    assert 1 in report.narrative["equal_shifts"]
    assert report.narrative["all_fits_distinct"] is True
    assert any("consistent at scale" in s for s in report.narrative["summary"])
    assert any("no periodic approximant" in s for s in report.narrative["summary"])
    text = report.to_text()
    assert "kernel quotients" in text and "periodic fits" in text
    obj = json.loads(report.to_json())
    assert obj["bases"] == [2, 3]
    assert obj["narrative"]["multiplicatively_independent"] is True


def test_report_periodic_sequence():
    report = cobham_report(
        periodic([0, 1, 1]),
        2,
        3,
        depth_k=2,
        depth_l=2,
        cps=Checkpoints.geometric(1 << 8, 1 << 14),
        tau=1e-2,
        max_shift=3,
        max_period=6,
    )
    exact = [p for p in report.fits if p.period == 3][0]
    assert exact.profile.counts[-1] == 0
    assert exact.verdict is Verdict.EQUAL
    assert report.narrative["all_fits_distinct"] is False
    assert report.narrative["best_fit_period"] == 3
    assert any(s.m == 3 and s.verdict is Verdict.EQUAL for s in report.shifts)


def test_report_exploratory_base_runs():
    # base-5 compression classes are reported without any structural claim
    report = cobham_report(
        seq_two_three(),
        2,
        5,
        depth_k=2,
        depth_l=2,
        cps=Checkpoints.geometric(1 << 8, 1 << 14),
        tau=1e-2,
        max_shift=1,
        max_period=4,
    )
    assert report.quotient_l.class_count >= 1
    assert isinstance(report.narrative["summary"], list)


def test_report_max_shift_zero_has_no_shift_rows_and_negative_is_refused():
    kwargs = dict(depth_k=1, depth_l=1, cps=Checkpoints.geometric(1 << 8, 1 << 10),
                  tau=0.25, max_period=2)
    assert cobham_report(periodic([0, 1]), 2, 3, max_shift=0, **kwargs).shifts == ()
    with pytest.raises(ValueError, match=r"^max_shift must be nonnegative, got -1$"):
        cobham_report(periodic([0, 1]), 2, 3, max_shift=-1, **kwargs)


def test_report_without_shifts_runs_on_two_checkpoints():
    # no shift reads a verdict; a fit on fewer than 3 checkpoints is Inconclusive
    report = cobham_report(periodic([0, 1]), 2, 3, depth_k=1, depth_l=1,
                           cps=Checkpoints.geometric(1 << 9, 1 << 10), max_shift=0, max_period=2)
    assert report.shifts == ()
    assert {p.verdict for p in report.fits} == {Verdict.INCONCLUSIVE}


def test_fits_csv_shape():
    fits = periodic_fit_sweep(periodic([0, 1]), range(1, 4), Checkpoints((1 << 10,)))
    text = fits_to_csv(fits)
    lines = text.strip().split("\n")
    assert lines[0].startswith("q,fraction_at_")
    assert lines[0].endswith(",min_margin")
    assert len(lines) == 4


def test_sweep_rejects_periods_longer_than_the_prefix():
    # a residue class with no position in the prefix would have a 0/0 margin
    with pytest.raises(ValueError, match="fitting prefix 10 shorter than period 11"):
        periodic_fit_sweep(periodic([0, 1]), range(1, 13), Checkpoints((10,)))
    with pytest.raises(ValueError, match="period must be >= 1, got 0"):
        periodic_fit_sweep(periodic([0, 1]), [0], Checkpoints((10,)))
    with pytest.raises(ValueError, match="no period"):
        periodic_fit_sweep(periodic([0, 1]), range(1, 1), Checkpoints((10,)))
    (fit,) = periodic_fit_sweep(periodic([0, 1]), [10], Checkpoints((10,)))
    assert fit.min_margin == 1.0


def test_sweep_fits_checked_against_the_budget_before_evaluating(monkeypatch):
    # periods 1..20000 keep 48 bytes for each of their 200010000 residues
    def refuse(*args):
        raise AssertionError("evaluated before the budget check")

    monkeypatch.setattr(Sequence, "values", refuse)
    with pytest.raises(RangeError, match=r"^periodic fits of 20000 periods up to 20000: "
                                         r"9600480000 bytes exceed the budget of 2147483648 bytes$"):
        periodic_fit_sweep(seq_two_three(), range(1, 20001), Checkpoints((20000,)))


def test_sweep_residue_counts_checked_against_the_budget_before_evaluating(monkeypatch):
    # 256 symbols keep each period below 65 on a modulus of its own; the counts of
    # q = 64 at 3 checkpoints take 16 * 256 * (3 + 1) * 64 bytes, while the fits'
    # own check counts 48 * (1 + ... + 64) = 99840
    def refuse(*args):
        raise AssertionError("evaluated before the budget check")

    monkeypatch.setattr(errors, "BUDGET", 1 << 19)
    monkeypatch.setattr(Sequence, "values", refuse)
    with pytest.raises(RangeError, match=r"^residue counts of 256 symbols mod 64 at 3 checkpoints: "
                                         r"1048576 bytes exceed the budget of 524288 bytes$"):
        periodic_fit_sweep(periodic(range(256)), range(1, 65), Checkpoints.geometric(256, 1024))


def _sweep_peak(f, periods, cps) -> int:
    """The tracemalloc peak of one periodic fit sweep."""
    tracemalloc.start()
    try:
        periodic_fit_sweep(f, periods, cps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_residue_count_check_covers_the_sweep_peak():
    # 256 symbols at 6 checkpoints, on one modulus of 250 residues read in place,
    # on the modulus 16 folded into the periods 8, 4, 2, 1 that merge into it, and
    # on the periods 64 down to 1, where 64 down to 33 are moduli read in place and
    # freed one at a time, and each smaller period folds from one it divides: the checked
    # bytes bound what tracemalloc sees, and the value table beside them
    f = periodic(range(256))
    for periods, cps in (([250], Checkpoints.geometric(1 << 10, 1 << 15)),
                         ([16, 8, 4, 2, 1], Checkpoints.geometric(1 << 7, 1 << 12)),
                         (range(64, 0, -1), Checkpoints.geometric(1 << 9, 1 << 14))):
        checked = _COUNT_BYTES * 256 * (len(cps) + 1) * periods[0]
        peak = _sweep_peak(f, periods, cps)
        assert checked / 2 < peak - cps.final < checked, (periods, peak, checked)


def test_period_alone_reads_its_counts_in_place():
    # a period equal to its modulus is fitted from the counts themselves, with no
    # folded copy: about 8 bytes per (residue, symbol) slot per checkpoint plus one
    f, cps = periodic(range(256)), Checkpoints.geometric(1 << 10, 1 << 15)
    slots = 1000 * 256 * (len(cps) + 1)
    peak = _sweep_peak(f, [1000], cps)
    assert (peak - cps.final) / slots < 10, (peak - cps.final) / slots


@pytest.mark.parametrize("periods", [
    range(1, 33), range(1, 40), range(0, 5), range(-3, 9), range(3, 40, 7), range(40, 3, -7),
    range(26, -3, -7), range(5, -1, -1), range(32, 0, -1), range(33, 0, -1), range(2, 100, 3),
    range(80, 90),
])
def test_period_range_checked_from_its_ends_as_its_walk(periods):
    # a range is refused for its first period outside [1, 32] without a walk; the
    # same periods as a list are walked, and both end alike
    def outcome(periods):
        try:
            return _fit_moduli(seq_two_three(), periods, Checkpoints.geometric(8, 32))
        except ValueError as e:
            return str(e)

    assert outcome(periods) == outcome(list(periods))


@pytest.mark.parametrize("periods, cps", [
    (range(1, 65), Checkpoints.geometric(1 << 10, 1 << 20)),  # report's default sweep
    (range(1, 17), Checkpoints.geometric(1 << 10, 1 << 18)),  # verify's periodic-fit
])
def test_two_symbol_sweeps_stay_far_below_the_budget(monkeypatch, periods, cps):
    monkeypatch.setattr(errors, "BUDGET", errors.BUDGET >> 10)
    assert _fit_moduli(seq_two_three(), periods, cps)


def test_sweep_table_checked_against_the_budget():
    # 2**40 bytes of value table: refused before anything is evaluated
    with pytest.raises(RangeError, match="budget"):
        periodic_fit_sweep(seq_two_three(), [1], Checkpoints((1 << 40,)))
    with pytest.raises(RangeError, match="budget"):
        sequence_values(seq_two_three(), (1 << 31) + 1)
