"""Each benchmark oracle against brute force on short prefixes.

Run with `python -m pytest benchmarks/test_oracles.py` from the repository
root.  Nothing here imports asymauto: the oracles must stand on their own.
"""

import math
import random

import numpy as np

import oracles

CPS = [16, 64, 256, 1000, 4096]


def _brute_counts(bad, checkpoints):
    return [sum(1 for n in range(cp) if bad(n)) for cp in checkpoints]


def _longest_ones(n):
    return max(len(r) for r in format(n, "b").split("0")) if n else 0


def _leading_ones(n):
    text = format(n, "b") if n else ""
    return len(text) - len(text.lstrip("1"))


def _is_prime(j):
    return j > 1 and all(j % d for d in range(2, math.isqrt(j) + 1))


def _two_three(n):
    if n == 0:
        n = 1
    best = (1, 0, 0)
    for a in range(n.bit_length()):
        for b in range(40):
            v = 2**a * 3**b
            if v > n:
                break
            best = max(best, (v, a, b))
    return (best[1] + best[2]) & 1


def test_sqrt_parity_labels():
    labels = oracles.sqrt_parity_labels(5000)
    assert labels.tolist() == [math.isqrt(n) & 1 for n in range(5000)]
    assert len(oracles.sqrt_parity_labels(1)) == 1


def test_sqrt_parity_scaled_mismatches():
    for c in (2, 3, 5, 7):
        want = _brute_counts(lambda n: (math.isqrt(n) ^ math.isqrt(c * n)) & 1, CPS)
        assert oracles.sqrt_parity_scaled_mismatches(c, CPS) == want


def test_leading_prime_odd_compression_mismatches():
    lp = lambda n: _is_prime(_leading_ones(n))  # noqa: E731
    want = _brute_counts(lambda n: lp(n) != lp(2 * n + 1), CPS + [1 << 14])
    assert oracles.leading_prime_odd_compression_mismatches(CPS + [1 << 14]) == want


def test_longest_ones():
    rng = random.Random(5)
    ns = list(range(5000)) + [rng.getrandbits(63) for _ in range(2000)] + [2**63 - 1, 2**62]
    got = oracles.longest_ones(np.array(ns, dtype=np.uint64)).tolist()
    assert got == [_longest_ones(n) for n in ns]


def test_run_parity_shift_mismatches():
    for m in (1, 3):
        want = _brute_counts(lambda n: (_longest_ones(n) ^ _longest_ones(n + m)) & 1, CPS)
        assert oracles.run_parity_shift_mismatches(m, CPS, chunk=100) == want
        assert oracles.run_parity_shift_mismatches(m, CPS, chunk=1 << 18) == want


def test_smooth_numbers():
    got = oracles.smooth_numbers(10**5)
    brute = [n for n in range(1, 10**5 + 1) if _strip(_strip(n, 2), 3) == 1]
    assert [v for v, _, _ in got] == brute
    assert all(v == 2**a * 3**b for v, a, b in got)


def _strip(n, p):
    while n % p == 0:
        n //= p
    return n


def test_two_three_indices():
    assert oracles.two_three_indices(3000).tolist() == [_two_three(n) for n in range(3000)]


def test_shift_mismatches_and_minority_sum():
    table = np.array([_two_three(n) for n in range(4096 + 8)], dtype=np.uint8)
    for m in (1, 2, 5):
        want = _brute_counts(lambda n: table[n] != table[n + m], CPS)
        assert oracles.shift_mismatches(table, m, CPS) == want
    prefix = table[:1000]
    for q in (1, 2, 3, 7, 64):
        want = 0
        for r in range(q):
            col = prefix[r::q].tolist()
            want += len(col) - max(col.count(0), col.count(1))
        assert oracles.minority_sum(prefix, q, 2) == want


def test_pairwise_mismatches():
    table = np.array([_two_three(n) for n in range(9 * 50)], dtype=np.uint8)
    elements = [(0, 0), (1, 0), (1, 2), (2, 5)]
    got = oracles.pairwise_mismatches(table, 3, elements, 50)
    for i, (a, r) in enumerate(elements):
        for j, (b, s) in enumerate(elements):
            want = sum(1 for n in range(50) if table[3**a * n + r] != table[3**b * n + s])
            assert got[i, j] == want


def test_union_coverage():
    for k, m, gamma, nu in [(4, 1, 6, 6), (5, 2, 7, 5), (8, 3, 5, 4), (4, 1, 2, 3)]:
        total = k**nu
        marked = bytearray(total)
        for a in range(gamma):
            for start in range(0, total, m * k**a):
                for x in range(start + k, min(start + k ** max(a - 1, 0), total)):
                    marked[x] = 1
        for window in (7, 64, 1 << 20):
            assert oracles.union_coverage(k, m, 1, gamma, nu, window) == sum(marked)


def test_union_floor():
    p, floor = oracles.union_floor(4, 1, 12)
    assert p == oracles.Fraction(9, 64)
    assert floor == 1 - oracles.Fraction(55, 64) ** 3


def test_digits_value():
    rng = random.Random(7)
    for _ in range(2000):
        k = rng.randrange(2, 37)
        digits = tuple(rng.randrange(k) for _ in range(rng.randrange(0, 12)))
        assert oracles.digits_value(digits, k) == sum(d * k**i for i, d in enumerate(reversed(digits)))
