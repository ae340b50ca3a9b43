"""Reference computations the benchmark checks the program against.

None of these call into asymauto.  Each one reaches the same counts by a
different route than the program does (run lengths instead of square roots,
a closed form instead of a scan, byte tables instead of shifting, a double
loop instead of a ladder merge, interval merging instead of a bitset,
Python's int parser instead of digit arithmetic), and each is itself
checked against brute force on short prefixes in test_oracles.py.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def counts_at(mismatch_starts, mismatch_ends, checkpoints) -> list:
    """|union of [s, e)| below each checkpoint, for disjoint sorted intervals."""
    s = np.asarray(mismatch_starts, dtype=np.int64)
    e = np.asarray(mismatch_ends, dtype=np.int64)
    return [int(np.clip(np.minimum(e, n) - s, 0, None).sum()) for n in checkpoints]


# ---------------------------------------------------------------------------
# sqrt-parity: floor(sqrt(n)) is j exactly on [j^2, (j+1)^2)
# ---------------------------------------------------------------------------


def sqrt_parity_labels(n: int) -> np.ndarray:
    """floor(sqrt(i)) mod 2 for i < n, laid out run by run (run j has length 2j+1)."""
    runs = math.isqrt(max(n - 1, 0)) + 1
    j = np.arange(runs, dtype=np.int64)
    return np.repeat((j & 1).astype(np.uint8), 2 * j + 1)[:n]


def sqrt_parity_scaled_mismatches(c: int, checkpoints) -> list:
    """Counts of n < N with isqrt(n) and isqrt(c*n) of different parity.

    Both square roots are constant between consecutive breakpoints j^2 and
    ceil(i^2 / c), so each segment is settled by one pair of integers.
    """
    last = checkpoints[-1]
    own = [j * j for j in range(math.isqrt(last) + 2)]
    scaled = [-(-(i * i) // c) for i in range(math.isqrt(c * last) + 2)]
    points = sorted(set(own) | set(scaled))
    starts, ends = [], []
    for a, b in zip(points, points[1:]):
        if a >= last:
            break
        if (math.isqrt(a) ^ math.isqrt(c * a)) & 1:
            starts.append(a)
            ends.append(b)
    return counts_at(starts, ends, checkpoints)


# ---------------------------------------------------------------------------
# leading-prime: appending a 1 changes the leading block only for 2^j - 1
# ---------------------------------------------------------------------------


def _is_prime(j: int) -> bool:
    return j > 1 and all(j % d for d in range(2, j))


def leading_prime_odd_compression_mismatches(checkpoints) -> list:
    """Counts of n < N with leading-prime(n) != leading-prime(2n + 1).

    Writing 2n+1 appends a 1 to the binary word of n; that extends the block
    of leading ones only when n is all ones, n = 2^j - 1 (j ones, j+1 after).
    """
    last = checkpoints[-1]
    hits = []
    j = 0
    while (1 << j) - 1 < last:
        if _is_prime(j) != _is_prime(j + 1):
            hits.append((1 << j) - 1)
        j += 1
    return [sum(1 for h in hits if h < n) for n in checkpoints]


# ---------------------------------------------------------------------------
# run-parity: longest block of 1s from per-byte tables
# ---------------------------------------------------------------------------


def _byte_tables():
    texts = [format(b, "08b") for b in range(256)]
    trail = [len(t) - len(t.rstrip("1")) for t in texts]
    lead = [len(t) - len(t.lstrip("1")) for t in texts]
    inner = [max(len(r) for r in t.split("0")) for t in texts]
    return (np.array(trail, dtype=np.int64), np.array(lead, dtype=np.int64),
            np.array(inner, dtype=np.int64))


_TRAIL, _LEAD, _INNER = _byte_tables()


def longest_ones(ns: np.ndarray) -> np.ndarray:
    """Longest run of binary 1s of each n, combining bytes from the low end up."""
    ns = np.asarray(ns, dtype=np.uint64)
    best = np.zeros(ns.shape, dtype=np.int64)
    cur = np.zeros(ns.shape, dtype=np.int64)
    for shift in range(0, 64, 8):
        b = ((ns >> np.uint64(shift)) & np.uint64(255)).astype(np.int64)
        best = np.maximum(best, np.maximum(_INNER[b], cur + _TRAIL[b]))
        cur = np.where(b == 255, cur + 8, _LEAD[b])
    return best


def run_parity_shift_mismatches(m: int, checkpoints, chunk: int = 1 << 18) -> list:
    """Counts of n < N with longest-run parity of n and of n+m different."""
    counts = [0] * len(checkpoints)
    for lo in range(0, checkpoints[-1], chunk):
        hi = min(lo + chunk, checkpoints[-1])
        par = longest_ones(np.arange(lo, hi + m, dtype=np.uint64)) & 1
        cum = np.cumsum(par[: hi - lo] != par[m:], dtype=np.int64)
        for i, n in enumerate(checkpoints):
            if n > lo:
                counts[i] += int(cum[min(n, hi) - lo - 1])
    return counts


# ---------------------------------------------------------------------------
# two-three: 3-smooth numbers by a double loop over the exponents
# ---------------------------------------------------------------------------


def smooth_numbers(limit: int) -> list:
    """(2^a 3^b, a, b) for every value <= limit, sorted by value."""
    out = []
    a, p2 = 0, 1
    while p2 <= limit:
        b, v = 0, p2
        while v <= limit:
            out.append((v, a, b))
            b, v = b + 1, v * 3
        a, p2 = a + 1, p2 * 2
    out.sort()
    return out


def two_three_indices(n: int) -> np.ndarray:
    """Symbol index (a + b) mod 2 of the 3-smooth interval holding each i < n.

    0 sits in the leading interval [1, 2) and shares its index.
    """
    rows = smooth_numbers(max(2 * n, 2))
    values = np.array([v for v, _, _ in rows], dtype=np.int64)
    parity = np.array([(a + b) & 1 for _, a, b in rows], dtype=np.uint8)
    lengths = np.diff(values)
    lengths[0] += 1  # the leading interval [1, 2) also holds 0
    return np.repeat(parity[:-1], lengths)[:n]


def shift_mismatches(table: np.ndarray, m: int, checkpoints) -> list:
    """Counts of n < N with table[n] != table[n+m]; table covers N_last + m."""
    last = checkpoints[-1]
    cum = np.cumsum(table[:last] != table[m : last + m], dtype=np.int64)
    return [int(cum[n - 1]) for n in checkpoints]


def minority_sum(table: np.ndarray, q: int, n_symbols: int) -> int:
    """Sum over residues r mod q of the positions outside r's most common symbol."""
    n = len(table)
    counts = np.zeros((q, n_symbols), dtype=np.int64)
    for r in range(q):
        counts[r] = np.bincount(table[r::q], minlength=n_symbols)
    return int(n - counts.max(axis=1).sum())


def pairwise_mismatches(table: np.ndarray, k: int, elements, n: int) -> np.ndarray:
    """Disagreement counts on [0, n) between kernel elements i -> table[k^a i + r]."""
    rows = [table[r : r + (k**a) * n : k**a] for a, r in elements]
    d = len(rows)
    out = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            out[i, j] = int(np.count_nonzero(rows[i] != rows[j]))
    return out


# ---------------------------------------------------------------------------
# residue-class union: merge the intervals arithmetically
# ---------------------------------------------------------------------------


def union_coverage(k: int, m: int, delta: int, gamma: int, nu: int, window: int = 1 << 20) -> int:
    """Integers of [0, k^nu) covered by the intervals m k^a t + [k^delta, k^(a-delta)).

    The range is cut into windows; in each one the intervals that reach into it
    are clipped to it, sorted by start and merged by their running reach.
    """
    total = k**nu
    low = k**delta
    levels = [(k ** (a - delta), m * k**a) for a in range(gamma) if a - delta > delta]
    covered = 0
    for w0 in range(0, total, window):
        w1 = min(w0 + window, total)
        starts, ends = [], []
        for high, step in levels:
            t0 = max(0, (w0 - high) // step + 1)  # first interval ending after w0
            t1 = (w1 - low - 1) // step + 1  # past the last one starting before w1
            if t1 > t0:
                base = np.arange(t0, t1, dtype=np.int64) * step
                starts.append(np.maximum(base + low, w0))
                ends.append(np.minimum(base + high, w1))
        if not starts:
            continue
        s, e = np.concatenate(starts), np.concatenate(ends)
        order = np.argsort(s, kind="stable")
        s, e = s[order], e[order]
        reach = np.concatenate(([w0], np.maximum.accumulate(e)[:-1]))
        covered += int(np.clip(e - np.maximum(s, reach), 0, None).sum())
    return covered


def union_floor(k: int, m: int, gamma: int):
    """(p, floor) with p = (floor(k/m) - 1)(k - 1)/k^3, floor = 1 - (1-p)^(floor(gamma/3) - 1)."""
    p = Fraction((k // m - 1) * (k - 1), k**3)
    return p, 1 - (1 - p) ** (gamma // 3 - 1)


# ---------------------------------------------------------------------------
# base conversion through Python's own integer parser
# ---------------------------------------------------------------------------


def digits_value(digits, k: int) -> int:
    """The integer a digit tuple stands for, parsed by int(text, k) (k <= 36)."""
    if not digits:
        return 0
    return int("".join("0123456789abcdefghijklmnopqrstuvwxyz"[d] for d in digits), k)
