from fractions import Fraction

import numpy as np
import pytest

import asymauto.density as density_mod
from asymauto import (
    INT_LIMIT,
    Checkpoints,
    RangeError,
    Sequence,
    Verdict,
    VerdictPolicy,
    density_estimate,
    discrepancy_profile,
    enumerate_smooth,
    periodic,
    seq_run_parity,
    seq_two_three,
    sequence_from_file,
    shift,
    union_density_experiment,
    verdict,
)
from asymauto.density import DiscrepancyProfile, prefix_counts
from asymauto.seqlib import _max_run_u64, _progression

from helpers import tribonacci_no_triple_ones, union_by_marking_sets


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
    # v *= ratio never passes `last` from 0 or below, so these once looped forever
    for first in (0, -3):
        with pytest.raises(ValueError, match="first checkpoint must be >= 1"):
            Checkpoints.geometric(first, 100)
    with pytest.raises(ValueError):
        Checkpoints.geometric(1024, 0)


def test_thread_count_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(density_mod.os, "cpu_count", lambda: 3)
    for env, want in (("1000000", 3), ("2", 2), ("0", 1), ("x", 1)):
        monkeypatch.setenv("ASYMAUTO_THREADS", env)
        assert density_mod._workers() == want
    monkeypatch.setattr(density_mod.os, "cpu_count", lambda: None)
    monkeypatch.setenv("ASYMAUTO_THREADS", "4")
    assert density_mod._workers() == 1


def test_identical_sequences_have_zero_profile():
    f = seq_run_parity()
    cps = Checkpoints.geometric(1 << 8, 1 << 12)
    profile = discrepancy_profile(f, f, cps)
    assert all(c == 0 for c in profile.counts)
    assert verdict(profile) is Verdict.EQUAL


def test_two_three_shift_profile():
    f = seq_two_three(enumerate_smooth(1 << 22))
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
    monkeypatch.setenv("ASYMAUTO_THREADS", "2")
    assert discrepancy_profile(f, g, cps).counts == base


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
    cps = Checkpoints((1, 63, 64, 1000, 4999, 5000))
    assert prefix_counts(mism, cps) == tuple(int(mism[:n].sum()) for n in cps)


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
