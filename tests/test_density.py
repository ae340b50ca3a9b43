import importlib.util
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import asymauto.cobham as cobham_mod
import asymauto.density as density_mod
import asymauto.kernel as kernel_mod
from asymauto import (
    INT_LIMIT,
    Checkpoints,
    RangeError,
    Sequence,
    Verdict,
    VerdictPolicy,
    cluster_kernel,
    density_estimate,
    discrepancy_profile,
    enumerate_smooth,
    periodic,
    periodic_fit_sweep,
    seq_run_parity,
    seq_sqrt_parity,
    seq_two_three,
    sequence_from_file,
    shift,
    union_density_experiment,
    verdict,
)
from asymauto.density import DiscrepancyProfile, prefix_counts
from asymauto.seqlib import _max_run_u64, _progression

from helpers import tribonacci_no_triple_ones, union_by_level_arithmetic, union_by_marking_sets


def scalar_leaf(fn):
    """A leaf that applies the Python scalar map fn to each index of its progression."""
    return lambda first, step, count: np.fromiter(
        (fn(first + i * step) for i in range(count)), dtype=np.uint8, count=count
    )


def binary_sequence(name, fn):
    return Sequence(name, ("0", "1"), scalar_leaf(fn), INT_LIMIT - 1)


def test_checkpoints_validation():
    with pytest.raises(ValueError):
        Checkpoints(())
    with pytest.raises(ValueError):
        Checkpoints((4, 4))
    cps = Checkpoints.geometric(1 << 10, 1 << 13)
    assert tuple(cps) == (1024, 2048, 4096, 8192)
    assert tuple(Checkpoints.geometric(1024, 3000)) == (1024, 2048, 3000)
    assert tuple(Checkpoints.geometric(1024, 512)) == (512,)
    assert cps.ratio_cap == 2.0
    assert Checkpoints((1000, 3000, 4500)).ratio_cap == 3.0
    assert Checkpoints((7,)).ratio_cap == 1.0


def test_geometric_rejects_first_below_one():
    # v *= 2 never passes `last` from 0 or below, so these once looped forever
    for first in (0, -3):
        with pytest.raises(ValueError, match="first checkpoint must be >= 1"):
            Checkpoints.geometric(first, 100)
    with pytest.raises(ValueError, match="last checkpoint must be >= 1, got 0"):
        Checkpoints.geometric(1024, 0)


def test_identical_sequences_have_zero_profile():
    f = seq_run_parity()
    cps = Checkpoints.geometric(1 << 8, 1 << 12)
    profile = discrepancy_profile(f, f, cps)
    assert all(c == 0 for c in profile.counts)
    assert verdict(profile) is Verdict.EQUAL


def test_two_three_shift_profile():
    f = seq_two_three()
    cps = Checkpoints.geometric(1 << 10, 1 << 20)
    profile = discrepancy_profile(f, shift(f, 1), cps)
    # switches happen only at enumeration points with a sign change
    table = enumerate_smooth(1 << 20)
    oracle = sum(
        1
        for i in range(1, len(table))
        if table[i].parity != table[i - 1].parity
    )
    assert profile.counts[-1] == oracle == 104
    assert profile.counts[-1] <= 323


def test_alphabet_mismatch_rejected():
    f = seq_run_parity()
    g = Sequence("three", ("a", "b", "c"), scalar_leaf(lambda n: n % 3), INT_LIMIT - 1)
    with pytest.raises(ValueError):
        discrepancy_profile(f, g, Checkpoints.geometric(4, 64))
    relabeled = Sequence("ab", ("a", "b"), scalar_leaf(lambda n: n & 1), INT_LIMIT - 1)
    with pytest.raises(ValueError):
        discrepancy_profile(f, relabeled, Checkpoints.geometric(4, 64))


def test_same_labels_in_another_order_compare_by_label():
    cps = Checkpoints.geometric(4, 64)
    odd = binary_sequence("odd", lambda n: n & 1)
    # index 0 is label "1" here, so equal labels sit on different indices
    swapped = Sequence("odd-swapped", ("1", "0"), scalar_leaf(lambda n: 1 - (n & 1)), INT_LIMIT - 1)
    assert discrepancy_profile(odd, swapped, cps).counts == (0,) * len(cps)
    assert discrepancy_profile(swapped, odd, cps).counts == (0,) * len(cps)
    flipped = Sequence("odd-flipped", ("1", "0"), scalar_leaf(lambda n: n & 1), INT_LIMIT - 1)
    assert discrepancy_profile(odd, flipped, cps).counts == tuple(cps)


def test_counts_chunking_invariance(monkeypatch):
    f = seq_run_parity()
    g = shift(f, 3)
    cps = Checkpoints((1000, 3000, 77777))
    base = discrepancy_profile(f, g, cps).counts
    monkeypatch.setattr(density_mod, "_SCAN_CHUNK", 997)
    assert discrepancy_profile(f, g, cps).counts == base
    want = tuple(int(np.count_nonzero(_max_run_u64(np.arange(n, dtype=np.uint64)) & 1)) for n in cps)
    assert density_estimate(f, cps).counts == want


class _Sentinel(Exception):
    pass


@pytest.mark.parametrize("chunk", [None, 2])
def test_prefix_scan_streams_its_spans(monkeypatch, chunk):
    # at least 2**44 chunks to 2**62: a list of them would never finish; the
    # scan stops at the first chunk's error, whatever the chunk size
    if chunk is not None:
        monkeypatch.setattr(density_mod, "_SCAN_CHUNK", chunk)
    calls = []

    def count(lo, hi):
        calls.append((lo, hi))
        raise _Sentinel

    with pytest.raises(_Sentinel):
        prefix_counts(count, Checkpoints((1 << 62,)))
    assert calls == [(0, density_mod._SCAN_CHUNK)]


def test_fits_and_kernel_profiles_count_in_chunks(monkeypatch):
    # spans cross several 997-position chunks and end off multiples of 64
    f = seq_sqrt_parity()
    cps = Checkpoints((1000, 5003, 7919, 77777))

    def run():
        fits = periodic_fit_sweep(f, range(1, 13), cps)
        return [(p.symbols, p.margins, p.profile.counts) for p in fits], cluster_kernel(f, 3, 2, cps, 0.45)

    base_fits, base_q = run()
    monkeypatch.setattr(density_mod, "_SCAN_CHUNK", 997)
    spans = {cobham_mod: [], kernel_mod: []}
    for module, seen in spans.items():

        def spy(count, cps, seen=seen):
            def counted(lo, hi):
                seen.append(hi - lo)
                return count(lo, hi)

            return prefix_counts(counted, cps)

        monkeypatch.setattr(module, "prefix_counts", spy)
    fits, q = run()
    assert all(seen and max(seen) <= 997 for seen in spans.values())
    assert fits == base_fits
    assert q.profiles == base_q.profiles and np.array_equal(q.matrix, base_q.matrix)
    assert any(c[-1] for c in q.profiles.values())  # some member differs from its rep


def test_triangle_inequality():
    rng = np.random.default_rng(7)
    seqs = [periodic(rng.integers(0, 2, size=17).tolist()) for _ in range(3)]
    cps = Checkpoints.geometric(256, 4096)
    c_fg = discrepancy_profile(seqs[0], seqs[1], cps).counts
    c_gh = discrepancy_profile(seqs[1], seqs[2], cps).counts
    c_fh = discrepancy_profile(seqs[0], seqs[2], cps).counts
    for a, b, c in zip(c_fh, c_fg, c_gh):
        assert a <= b + c


def test_verdict_policy_table():
    cps = Checkpoints((100, 200, 400))

    def profile(counts):
        return DiscrepancyProfile("f", "g", cps, counts)

    assert verdict(profile((0, 0, 0))) is Verdict.EQUAL
    assert verdict(profile((40, 80, 160)), VerdictPolicy(tau=0.01)) is Verdict.DISTINCT
    wobble = profile((0, 2, 0))  # fraction rises then falls around tau
    assert verdict(wobble, VerdictPolicy(tau=1e-3)) is Verdict.INCONCLUSIVE
    # exact rho ties: 1.5 * 0.05 is 0.07500000000000001 in floats
    tie = DiscrepancyProfile("f", "g", Checkpoints((400, 800, 1600)), (45, 60, 80))
    assert verdict(tie, VerdictPolicy(tau=0.05, rho=1.5)) is Verdict.EQUAL
    with pytest.raises(ValueError):
        verdict(DiscrepancyProfile("f", "g", Checkpoints((10, 20)), (0, 0)))


def test_density_estimate_even_numbers():
    evens = binary_sequence("evens", lambda n: 1 - (n & 1))
    cps = Checkpoints.geometric(1 << 10, 1 << 14)
    est = density_estimate(evens, cps)
    assert (est.left, est.right, est.checkpoints) == ("evens", "1", cps)
    assert abs(min(est.fractions) - 0.5) <= 1 / 1024
    assert abs(max(est.fractions) - 0.5) <= 1 / 1024
    zeros = binary_sequence("none", lambda n: 0)
    est0 = density_estimate(zeros, cps)
    assert (min(est0.fractions), max(est0.fractions)) == (0.0, 0.0)
    with pytest.raises(ValueError):
        density_estimate(Sequence("t", ("a", "b", "c"), scalar_leaf(lambda n: 0), INT_LIMIT - 1), cps)


def test_density_estimate_short_runs_indicator():
    # exact prefix count of integers whose longest 1-run is under 3,
    # cross-checked against the no-111 string recurrence
    from asymauto import max_run

    indicator = Sequence(
        "short-runs",
        ("0", "1"),
        lambda first, step, count: (
            _max_run_u64(_progression(first, step, count)) < np.uint64(3)
        ).astype(np.uint8),
        INT_LIMIT - 1,
    )
    assert indicator.values(0, 1 << 12).tolist() == [int(max_run(n) < 3) for n in range(1 << 12)]
    cps = Checkpoints(tuple(1 << e for e in range(10, 25, 2)))
    est = density_estimate(indicator, cps)
    for n_exp, count in zip(range(10, 25, 2), est.counts):
        assert count == tribonacci_no_triple_ones(n_exp)
    fractions = est.fractions
    assert all(a > b for a, b in zip(fractions, fractions[1:]))
    assert est.counts[-1] == 2555757  # fraction 0.1523 at 2^24


def test_density_counts_the_label_one(tmp_path):
    # a file: indicator starting with "1" gets the alphabet ("1", "0"), so
    # label "1" sits on index 0; its one position is what is counted
    path = tmp_path / "ind.txt"
    path.write_text("1\n0\n0\n0\n", encoding="utf-8")
    f = sequence_from_file(path)
    assert f.alphabet == ("1", "0")
    assert density_estimate(f, Checkpoints((1, 2, 4))).counts == (1, 1, 1)
    assert density_estimate(f, Checkpoints((2, 4))).counts == (1, 1)
    odd = binary_sequence("odd", lambda n: n & 1)
    assert density_estimate(odd, Checkpoints((4, 9))).counts == (2, 4)
    no_one = Sequence("ab", ("a", "b"), scalar_leaf(lambda n: n & 1), INT_LIMIT - 1)
    with pytest.raises(ValueError, match='label "1"'):
        density_estimate(no_one, Checkpoints((4,)))


def test_prefix_counts_one_pass():
    rng = np.random.default_rng(3)
    mism = rng.random(5000) < 0.3
    symbols = rng.integers(0, 3, 5000)
    cps = Checkpoints((1, 63, 64, 1000, 4999, 5000))
    spans = []

    def count_mism(lo, hi):
        spans.append((lo, hi))
        return int(np.count_nonzero(mism[lo:hi]))

    assert prefix_counts(count_mism, cps) == tuple(int(mism[:n].sum()) for n in cps)
    assert spans == list(zip((0,) + cps.values, cps.values))

    def count_symbols(lo, hi):
        return np.bincount(symbols[lo:hi], minlength=3)

    want = [np.bincount(symbols[:n], minlength=3).tolist() for n in cps]
    assert [c.tolist() for c in prefix_counts(count_symbols, cps)] == want

    def accumulating_in_place(count, cps):
        counts, total, prev = [], 0, 0
        for n in cps:
            total += count(prev, n)
            counts.append(total)
            prev = n
        return counts

    # with += every checkpoint after the first would hold the one final array
    assert [c.tolist() for c in accumulating_in_place(count_symbols, cps)] != want


def test_scans_past_the_range_fail_before_the_first_chunk(monkeypatch):
    # the last term of each side is read once, before prefix_counts starts
    def refuse(count, cps):
        raise AssertionError("scanned before the last term was read")

    monkeypatch.setattr(density_mod, "prefix_counts", refuse)
    past = Checkpoints((1 << 10, INT_LIMIT + 1))
    with pytest.raises(RangeError, match=f"index {INT_LIMIT} reaches leaf index {INT_LIMIT}, "):
        density_estimate(seq_sqrt_parity(), past)
    with pytest.raises(RangeError, match=f"shift:1:two-three: index {INT_LIMIT - 1} "):
        discrepancy_profile(seq_two_three(), shift(seq_two_three(), 1), Checkpoints((INT_LIMIT,)))


def test_density_along_subsequence_even():
    evens = binary_sequence("evens", lambda n: 1 - (n & 1))
    cps = Checkpoints(tuple(2**i for i in range(4, 15)))
    res = density_estimate(evens, cps)
    assert cps.ratio_cap == 2.0
    assert all(f == 0.5 for f in res.fractions)
    empty = density_estimate(binary_sequence("none", lambda n: 0), Checkpoints((10, 100)))
    assert max(empty.fractions) == 0.0
    with pytest.raises(ValueError):
        density_estimate(evens, Checkpoints(()))


def test_density_along_subsequence_block_set():
    # blocks [2^i, 1.5 * 2^i): the two schedules bracket the upper density 2/3
    def fn(n):
        if n < 2:
            return 0
        return 1 - ((n >> (n.bit_length() - 2)) & 1)

    blocks = binary_sequence("blocks", fn)
    powers = Checkpoints(tuple(2**i for i in range(6, 17)))
    at_powers = max(density_estimate(blocks, powers).fractions)
    at_peaks = max(density_estimate(blocks, Checkpoints(tuple(3 * 2**i for i in range(5, 16)))).fractions)
    upper = 2 / 3
    assert abs(at_peaks - upper) < 0.01
    assert abs(at_powers - 0.5) < 0.01
    assert upper / powers.ratio_cap <= at_powers <= upper


def test_covered_part_identity_on_random_bitsets():
    rng = np.random.default_rng(13)
    n = 4096
    for _ in range(20):
        union = rng.random(n) < rng.random()
        b = rng.random(n) < rng.random()
        covered = int(np.count_nonzero(union & b))
        assert covered >= int(np.count_nonzero(b)) - (n - int(np.count_nonzero(union)))


def test_union_small_cases_match_set_oracle():
    for args in [(3, 1, 1, 4, 5), (4, 1, 1, 5, 5), (5, 2, 1, 4, 4), (8, 3, 1, 6, 4)]:
        res = union_density_experiment(*args)
        assert res.covered == union_by_marking_sets(*args), args


def test_union_empty_when_gamma_small():
    res = union_density_experiment(4, 1, 1, 2, 4)
    assert res.covered == 0
    assert res.fraction == 0.0


def test_union_monotone_in_gamma():
    prev = -1
    for gamma in range(2, 9):
        res = union_density_experiment(4, 1, 1, gamma, 6)
        assert res.covered >= prev
        prev = res.covered


def test_union_rejects_unnormalized_inputs():
    with pytest.raises(ValueError, match="renormalize"):
        union_density_experiment(4, 2, 1, 6, 6)
    with pytest.raises(ValueError, match="renormalize"):
        union_density_experiment(4, 1, 2, 6, 6)
    with pytest.raises(RangeError):
        union_density_experiment(4, 1, 1, 6, 40)
    with pytest.raises(RangeError, match="budget"):
        union_density_experiment(3, 1, 1, 6, 20)


def test_union_budget_refused_before_the_power():
    # 4**(10**8) alone is 25 MB and takes seconds: 2**nu is over the budget,
    # so nothing of that size may be built
    tracemalloc.start()
    try:
        with pytest.raises(RangeError, match="at least 2\\*\\*100000000 bits exceed the budget"):
            union_density_experiment(4, 1, 1, 6, 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_union_counts_its_bitset_in_place():
    # the popcount overwrites the bitset it counts: no second bitset-sized array
    tracemalloc.start()
    try:
        res = union_density_experiment(4, 1, 1, 4, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.covered == union_by_marking_sets(4, 1, 1, 4, 11)
    assert peak < 1.5 * (4**11 // 8), peak


def _benchmark_oracles():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "oracles.py"
    spec = importlib.util.spec_from_file_location("asymauto_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_union_levels_past_nu_match_oracles():
    # gamma > nu + 1: the levels past nu + 1 repeat level nu + 1's interval
    oracles = _benchmark_oracles()
    rng = random.Random(12)
    for _ in range(30):
        k = rng.randint(3, 9)
        m = rng.randint(1, (k - 1) // 2)
        nu = rng.randint(1, 7 if k == 3 else 4)
        # the oracle steps by m * k**a in int64
        gamma = rng.randint(nu + 2, (62 - m.bit_length()) // k.bit_length())
        res = union_density_experiment(k, m, 1, gamma, nu)
        assert res.covered == oracles.union_coverage(k, m, 1, gamma, nu), (k, m, gamma, nu)
        assert (res.success_p, res.bound) == oracles.union_floor(k, m, gamma), (k, m, gamma)
        gamma = rng.randint(nu + 2, 60)
        res = union_density_experiment(k, m, 1, gamma, nu)
        assert res.covered == union_by_marking_sets(k, m, 1, gamma, nu), (k, m, gamma, nu)
        gamma = rng.randint(nu + 2, 2000)
        res = union_density_experiment(k, m, 1, gamma, nu)
        assert (res.success_p, res.bound) == oracles.union_floor(k, m, gamma), (k, m, gamma)


def test_union_level_arithmetic_matches_bitset():
    # the arithmetic count that can replace the bitset, on criterion 12's two sets and
    # on 1,000 random normalized sets (k**nu <= 2**16, and <= 2**22 for every 50th)
    assert union_by_level_arithmetic(4, 1, 12, 12) == 15360048
    assert union_by_level_arithmetic(8, 3, 15, 9) == 134217720
    rng = random.Random(16)
    seen = dict.fromkeys(["covered > 0", "m > 1", "gamma <= 3", "gamma > nu + 1",
                          "k**nu off the periods"], 0)
    for i in range(1000):
        k = rng.randint(3, 12)
        m = rng.randint(1, (k - 1) // 2)
        cap = 1 << (22 if i % 50 == 0 else 16)
        nu = rng.randint(1, max(n for n in range(1, 23) if k**n <= cap))
        gamma = rng.randint(0, 3) if i % 5 == 0 else rng.randint(4, nu + 4)
        res = union_density_experiment(k, m, 1, gamma, nu)
        assert union_by_level_arithmetic(k, m, gamma, nu) == res.covered, (k, m, gamma, nu)
        seen["covered > 0"] += res.covered > 0
        seen["m > 1"] += m > 1
        seen["gamma <= 3"] += gamma <= 3
        seen["gamma > nu + 1"] += gamma > nu + 1
        seen["k**nu off the periods"] += any(k**nu % (m * k**a) for a in range(3, gamma))
    assert min(seen.values()) >= 50, seen


def test_union_floor_refused_past_its_digits():
    # 1 - 9/64 = 55/64: the floor's denominator 64**e has 4299 digits at e = 2380
    # (gamma = 7143) and 4301 at e = 2381 (gamma = 7146)
    res = union_density_experiment(4, 1, 1, 7143, 5)
    assert res.bound == 1 - Fraction(55, 64) ** 2380
    assert res.covered == union_by_marking_sets(4, 1, 1, 7, 5)
    assert f'"bound": "{res.bound.numerator}/{res.bound.denominator}"' in res.to_json()
    with pytest.raises(RangeError, match="more than 4300 digits"):
        union_density_experiment(4, 1, 1, 7146, 5)
    start = time.perf_counter()
    with pytest.raises(RangeError, match="more than 4300 digits"):
        union_density_experiment(4, 1, 1, 10**12, 5)
    assert time.perf_counter() - start < 1


def test_union_bound_is_exact_fraction_comparison():
    res = union_density_experiment(4, 1, 1, 9, 9)
    assert res.success_p == Fraction(9, 64)
    assert res.bound == 1 - (1 - Fraction(9, 64)) ** 2
    assert res.meets_bound is (Fraction(res.covered, res.total) >= res.bound)


def test_profile_exports(tmp_path):
    f = seq_run_parity()
    profile = discrepancy_profile(f, shift(f, 1), Checkpoints.geometric(256, 1024))
    csv = profile.to_csv()
    assert csv.splitlines()[0] == "N,count,fraction"
    assert len(csv.splitlines()) == 4
    import json

    obj = json.loads(profile.to_json())
    assert obj["checkpoints"] == [256, 512, 1024]
    assert len(obj["counts"]) == 3


def test_value_tables_refused_over_the_budget_before_evaluating(monkeypatch):
    # value_blocks checks when it is called, not at its first block
    def refuse(*args):
        raise AssertionError("evaluated before the budget check")

    monkeypatch.setattr(Sequence, "values", refuse)
    err = ("value table of two-three on [5, 2147483654): "
           "2147483649 bytes exceed the budget of 2147483648 bytes")
    for build in (density_mod.value_blocks, density_mod.sequence_values):
        with pytest.raises(RangeError, match=f"^{re.escape(err)}$"):
            build(seq_two_three(), (1 << 31) + 1, 5)
