import re
from fractions import Fraction

import pytest

from asymauto import RangeError, enumerate_smooth, first_smooth, kronecker_gap, ratio_profile, smooth
from asymauto.smooth import first_bytes, limit_bytes, table_to_csv

from helpers import kronecker_pairs_by_fractions, smooth_by_double_loop


def test_enumeration_examples():
    assert [e.value for e in enumerate_smooth(12)] == [1, 2, 3, 4, 6, 8, 9, 12]
    only = enumerate_smooth(1)
    assert len(only) == 1 and only[0].value == 1 and (only[0].alpha, only[0].beta) == (0, 0)
    assert len(enumerate_smooth(10**6)) == 142


def test_enumeration_matches_double_loop():
    table = enumerate_smooth(10**6)
    assert [(e.value, e.alpha, e.beta) for e in table] == smooth_by_double_loop(10**6)


def _value_bytes(entries) -> int:
    return sum((v.bit_length() + 7) // 8 for v, _, _ in entries)


def test_byte_bounds_hold():
    # the bounds first_smooth and enumerate_smooth check against the budget before enumerating
    rows = smooth_by_double_loop(10**40)
    for n in (1, 2, 3, 4, 10, 99, 100, 101, 1000, 5001):
        assert first_bytes(n) >= _value_bytes(rows[:n]), n
        assert [e.value for e in first_smooth(n)] == [v for v, _, _ in rows[:n]]
    for limit in (1, 2, 3, 8, 9, 12, 10**6, 3**20, 3**20 - 1, 10**40):
        below = [row for row in rows if row[0] <= limit]
        assert limit_bytes(limit) >= _value_bytes(below), limit
    assert first_bytes(0) == first_bytes(-3) == limit_bytes(0) == limit_bytes(-3) == 0


@pytest.mark.parametrize("build, arg, err", [
    (first_smooth, 10**7, "3-smooth table of the first 10000000 entries: 7910000000 bytes"),
    (enumerate_smooth, 10**1000, f"3-smooth table up to {10**1000}: {limit_bytes(10**1000)} bytes"),
])
def test_tables_refused_over_the_budget_before_merging(monkeypatch, build, arg, err):
    def refuse(stop):
        raise AssertionError("enumerated before the check")

    monkeypatch.setattr(smooth, "_merge", refuse)
    with pytest.raises(RangeError, match=f"^{re.escape(err)} exceed the budget of 2147483648 bytes$"):
        build(arg)


def test_exponent_exactness():
    for e in enumerate_smooth(10**5):
        prod = 1
        for _ in range(e.alpha):
            prod *= 2
        for _ in range(e.beta):
            prod *= 3
        assert prod == e.value


def test_closure_under_doubling_and_tripling():
    limit = 10**5
    values = {e.value for e in enumerate_smooth(limit)}
    for v in values:
        if 2 * v <= limit:
            assert 2 * v in values
        if 3 * v <= limit:
            assert 3 * v in values


def test_ratio_profile_windows():
    table = first_smooth(1100)
    head = ratio_profile(table, 0, 4)
    assert (head.numerator, head.denominator) == (2, 1)
    # exact maxima recomputed with the raw entries before freezing
    mid = ratio_profile(table, 100, 1000)
    assert mid.ratio == Fraction(2187, 2048)
    assert mid.ratio == max(
        Fraction(table[i + 1].value, table[i].value) for i in range(100, 1000)
    )
    # 2, 3, 4, 6: the ratios at 1, 2, 3 are 3/2, 4/3, 3/2, and the first maximum is kept
    tie = ratio_profile(table, 1, 4)
    assert (tie.argmax, tie.numerator, tie.denominator) == (1, 3, 2)
    with pytest.raises(ValueError):
        ratio_profile(table, 10, 10)
    with pytest.raises(ValueError):
        ratio_profile(table, 0, 1100)


def test_running_max_envelope_drops_after_gap_condition():
    # once every later entry has alpha >= gamma' or beta >= delta, the gap
    # ratio stays below 1+t for the pair returned by the exponent search
    table = first_smooth(3000)
    for t in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 20)):
        gaps = kronecker_gap(t)
        delta = gaps.smallest_gamma.delta
        gamma_p = gaps.smallest_delta.gamma
        start = None
        for i, e in enumerate(table):
            if e.alpha >= gamma_p or e.beta >= delta:
                if start is None:
                    start = i
            else:
                start = None
        assert start is not None
        worst = max(
            Fraction(table[i + 1].value, table[i].value)
            for i in range(start, len(table) - 1)
        )
        assert worst < 1 + t


def test_kronecker_examples():
    gaps = kronecker_gap(Fraction(1, 10))
    g = gaps.smallest_gamma
    assert (g.gamma, g.delta, g.numerator, g.denominator) == (8, 5, 256, 243)
    d = gaps.smallest_delta
    assert (d.gamma, d.delta, d.numerator, d.denominator) == (11, 7, 2187, 2048)
    assert any((p.gamma, p.delta) == (19, 12) for p in gaps.three_side)
    unit = kronecker_gap(1)
    assert (unit.smallest_gamma.gamma, unit.smallest_gamma.delta) == (2, 1)
    assert (unit.smallest_delta.gamma, unit.smallest_delta.delta) == (1, 1)


def test_kronecker_matches_fraction_oracle():
    # two_side in (gamma, delta) order and three_side in (delta, gamma) order, as reported;
    # the two orders differ only past 1 + t = 6, where some pairs (g, d), (g', d') have
    # g < g' and d > d'
    for t in map(Fraction, ("1/20", "1/10", "1/2", "1", "3", "7")):
        for cap in (8, 32, 64):
            two, three = kronecker_pairs_by_fractions(t, cap)
            if not two or not three:
                with pytest.raises(RangeError):
                    kronecker_gap(t, cap)
                continue
            gaps = kronecker_gap(t, cap)
            assert [(p.gamma, p.delta) for p in gaps.two_side] == sorted(two)
            three.sort(key=lambda p: p[::-1])
            assert [(p.gamma, p.delta) for p in gaps.three_side] == three
            for p in gaps.two_side:
                assert 3**p.delta < 2**p.gamma
                assert 2**p.gamma * t.denominator < 3**p.delta * (t.numerator + t.denominator)


def test_kronecker_failure_is_loud():
    with pytest.raises(RangeError):
        kronecker_gap(Fraction(1, 10**9), cap=8)
    with pytest.raises(ValueError):
        kronecker_gap(0)


def test_csv_export():
    text = "".join(table_to_csv(enumerate_smooth(12)))
    lines = text.strip().split("\n")
    assert lines[0] == "index,H,alpha,beta,ratio_to_next"
    assert len(lines) == 9
    assert lines[1].startswith("0,1,0,0,")
    assert lines[-1] == "7,12,2,1,"
