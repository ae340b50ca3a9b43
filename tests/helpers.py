"""Independent oracles the tests check the library against.

Everything here is deliberately naive: string scans, double loops over
exponents, set-based marking, one Python integer at a time.  None of it
shares code with the package, beyond the error type the parser oracle raises.
"""

import math
import sys
from bisect import bisect_right
from fractions import Fraction

from asymauto.errors import ExprError


def leading_ones_by_string(n: int) -> int:
    bits = format(n, "b") if n else ""
    cut = bits.find("0")
    return len(bits) if cut == -1 else cut


def max_run_by_string(n: int) -> int:
    bits = format(n, "b") if n else ""
    return max((len(run) for run in bits.split("0")), default=0)


def duplicate_by_runs(n: int) -> int:
    """One more 1 in the earliest longest 1-block of n (1 for n = 0), found by a run scan."""
    if n == 0:
        return 1
    bits = format(n, "b")
    best = max_run_by_string(n)
    pos = 0
    while True:
        run = 0
        start = pos
        while pos < len(bits) and bits[pos] == "1":
            run += 1
            pos += 1
        if run == best:
            return int(bits[:start] + "1" * (best + 1) + bits[pos:], 2)
        pos += 1


def smooth_by_double_loop(limit: int) -> list:
    """All (value, alpha, beta) with 2**a 3**b <= limit, sorted by value."""
    out = []
    a = 0
    while 2**a <= limit:
        b = 0
        while 2**a * 3**b <= limit:
            out.append((2**a * 3**b, a, b))
            b += 1
        a += 1
    out.sort()
    return out


def is_prime_by_trial(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


def leading_prime_naive(n: int) -> int:
    return int(is_prime_by_trial(leading_ones_by_string(n)))


def run_parity_naive(n: int) -> int:
    return max_run_by_string(n) & 1


def sqrt_parity_naive(n: int) -> int:
    return math.isqrt(n) & 1


def two_three_naive(limit: int):
    """n -> parity of a + b for the last 2**a 3**b <= n (n = 0 sits with 1)."""
    rows = smooth_by_double_loop(limit)
    values = [v for v, _, _ in rows]

    def evaluate(n: int) -> int:
        _, a, b = rows[max(bisect_right(values, n) - 1, 0)]
        return (a + b) & 1

    return evaluate


def kronecker_pairs_by_fractions(t: Fraction, cap: int) -> tuple:
    """Qualifying exponent pairs on both sides, via Fraction comparisons."""
    hi = 1 + t
    two_side = []
    three_side = []
    for g in range(cap + 1):
        for d in range(cap + 1):
            r = Fraction(2**g, 3**d)
            if 1 < r < hi:
                two_side.append((g, d))
            if 1 < 1 / r < hi:
                three_side.append((g, d))
    return two_side, three_side


def union_by_marking_sets(k, m, delta, gamma, nu) -> int:
    """|[0, k**nu) covered by union over a < gamma of (m k^a N0 + [k^d, k^(a-d)))|."""
    total = k**nu
    covered = set()
    for a in range(gamma):
        lo, hi = k**delta, k ** (a - delta) if a >= delta else 0
        if lo >= hi:
            continue
        start = 0
        while start + lo < total:
            covered.update(range(start + lo, min(start + hi, total)))
            start += m * k**a
    return len(covered)


def union_by_level_arithmetic(k, m, gamma, nu) -> int:
    """`union_by_marking_sets(k, m, 1, gamma, nu)` for normalized k, m, by arithmetic.

    Level a adds [k, k^(a-1)) + P_a N with P_a = m k^a, so levels a <= 2 are
    empty.  F(A, x) = |levels <= A in [0, x)| is q G(A, P_A) + G(A, r) with
    x = q P_A + r, where G(A, r) = F(A-1, r) + |[k, c) not covered below A|,
    c = min(r, k^(A-1)).  The count is F(min(gamma, nu + 2) - 1, k^nu): a
    level past nu + 1 adds what level nu + 1 adds.  The points F is read at
    are collected level by level from the top, then F is filled in from level
    3 up, so nothing recurses.
    """
    top = min(gamma, nu + 2) - 1
    if top <= 2:
        return 0
    points = {top: {k**nu}}
    for a in range(top, 2, -1):
        points[a - 1] = set()
        for x in points[a]:
            for r in (m * k**a, x % (m * k**a)):
                points[a - 1].update((r, min(r, k ** (a - 1)), k))

    def g(below, a, r):
        c = min(r, k ** (a - 1))
        return below[r] + ((c - k) - (below[c] - below[k]) if c > k else 0)

    counts = dict.fromkeys(points[2], 0)
    for a in range(3, top + 1):
        period = m * k**a
        counts = {x: x // period * g(counts, a, period) + g(counts, a, x % period)
                  for x in points[a]}
    return counts[k**nu]


def tribonacci_no_triple_ones(length: int) -> int:
    """Binary strings of the given length with no block of three 1s."""
    a, b, c = 1, 2, 4  # lengths 0, 1, 2
    if length == 0:
        return a
    if length == 1:
        return b
    for _ in range(length - 2):
        a, b, c = b, c, a + b + c
    return c


def kernel_elements_by_loop(values: list, k: int, depth: int, n: int) -> dict:
    """(alpha, r) -> [values[k**alpha * i + r] for i < n], one Python list each."""
    return {
        (a, r): [values[k**a * i + r] for i in range(n)]
        for a in range(depth + 1)
        for r in range(k**a)
    }


def disagreements(u: list, v: list, n: int) -> int:
    return sum(1 for x, y in zip(u[:n], v[:n]) if x != y)


def majority_by_residue_loop(values: list, q: int):
    """Per residue class mod q: (smallest most frequent symbol, (top - runner-up) / size)."""
    symbols, margins = [], []
    for r in range(q):
        tally = {}
        for x in values[r::q]:
            tally[x] = tally.get(x, 0) + 1
        ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
        top = ranked[0][1]
        runner = ranked[1][1] if len(ranked) > 1 else 0
        symbols.append(ranked[0][0])
        margins.append((top - runner) / len(values[r::q]))
    return symbols, margins


def moduli_by_lcm_search(periods, n_sym: int, keys: int) -> list:
    """The moduli of a fit plan, from the largest period down, each period tried against all.

    A period that divides a modulus is skipped; else it merges into the first
    modulus M with lcm(M, q) * n_sym <= keys, else it starts a modulus of its own.
    """
    moduli = []
    for q in sorted(set(periods), reverse=True):
        if any(m % q == 0 for m in moduli):
            continue
        for i, m in enumerate(moduli):
            if math.lcm(m, q) * n_sym <= keys:
                moduli[i] = math.lcm(m, q)
                break
        else:
            moduli.append(q)
    return moduli


def labels_by_splitlines(path) -> tuple:
    """(alphabet, symbol index per line) of a label file, read whole and split by str.splitlines.

    Raises ValueError with the loader's texts for an empty file and for more
    than 256 labels; invalid UTF-8 raises from the text decode of the whole file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        labels = fh.read().splitlines()
    if not labels:
        raise ValueError(f"{path}: empty sequence file")
    alphabet = tuple(dict.fromkeys(labels))
    if len(alphabet) > 256:
        raise ValueError(
            f"file:{path}: alphabet has {len(alphabet)} symbols, need between 1 and 256"
        )
    position = {lab: i for i, lab in enumerate(alphabet)}
    return alphabet, [position[lab] for lab in labels]


# The sequence expression parser as a cursor over the text, kept as the reference
# `cli.parse_expr` is checked against: the same steps, or an ExprError with the
# same message and byte offset.  It raises the package's ExprError so the two
# can be compared field by field.
_LEAF_NAMES = {"leading-prime", "run-parity", "sqrt-parity", "two-three", "periodic"}


def _take_token(text: str, pos: int):
    end = text.find(":", pos)
    if end == -1:
        end = len(text)
    return text[pos:end], end


def _expect_colon(text: str, pos: int) -> int:
    if pos >= len(text) or text[pos] != ":":
        raise ExprError("expected ':' and another argument", pos)
    return pos + 1


def _take_int(text: str, pos: int, what: str):
    token, end = _take_token(text, pos)
    if not token or not (token.isascii() and token.isdigit()):
        raise ExprError(f"expected nonnegative integer for {what}, got {token!r}", pos)
    return int(token), end


def _parse_leaf(text: str, token: str, pos: int, end: int) -> tuple:
    """The leaf step named by `token` at `pos`; it ends the expression."""
    if token == "periodic":
        end = _expect_colon(text, end)
        if end == len(text):
            raise ExprError("periodic needs a comma-separated value list", end)
        values = []
        for part in text[end:].split(","):
            if not (part.isascii() and part.isdigit()):
                raise ExprError(f"bad periodic value {part!r}", end)
            values.append(int(part))
            end += len(part) + 1
        return ("periodic", tuple(values))
    if token == "file":
        end = _expect_colon(text, end)
        if end == len(text):
            raise ExprError("file needs a path", end)
        return ("file", text[end:])
    if token in _LEAF_NAMES:
        if end != len(text):
            raise ExprError("trailing characters after expression", end)
        return (token,)
    raise ExprError(f"unknown constructor {token!r}", pos)


def parse_expr_by_cursor(text: str) -> tuple:
    """The steps of a sequence expression, outermost first; errors carry the byte offset.

    Steps are ("shift", m) and ("compress", k, alpha, r); the last is the leaf,
    (name,), ("periodic", values) or ("file", path).
    """
    for i, ch in enumerate(text):
        if ch.isspace():
            raise ExprError("whitespace is not allowed in expressions", i)
    if not text:
        raise ExprError("empty expression", 0)
    steps = []
    pos = 0
    while True:
        token, end = _take_token(text, pos)
        if token == "shift":
            m, end = _take_int(text, _expect_colon(text, end), "shift amount")
            steps.append(("shift", m))
        elif token == "compress":
            k_at = _expect_colon(text, end)
            k, end = _take_int(text, k_at, "base")
            if k < 2:
                raise ExprError(f"base must be >= 2, got {k}", k_at)
            alpha, end = _take_int(text, _expect_colon(text, end), "depth")
            r_at = _expect_colon(text, end)
            r, end = _take_int(text, r_at, "residue")
            if alpha < 63 and r >= k**alpha:  # compress refuses alpha >= 63 before the power
                raise ExprError(f"residue {r} >= {k}**{alpha}", r_at)
            steps.append(("compress", k, alpha, r))
        else:
            steps.append(_parse_leaf(text, token, pos, end))
            return tuple(steps)
        pos = _expect_colon(text, end)


# Linux carries a process's peak RSS across fork and exec, so a child of the test
# process reports at least the test process's own peak.  This launcher runs its
# arguments as a python command in a child of its own, prints that child's peak RSS
# (KiB, by wait4) as the last line of stderr and exits with the child's exit code.
_RSS_LAUNCHER = (
    "import os, sys; "
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ); "
    "_, status, usage = os.wait4(pid, 0); print(usage.ru_maxrss, file=sys.stderr); "
    "sys.exit(os.waitstatus_to_exitcode(status))"
)


def python_with_peak_rss(*args) -> list:
    """argv of `python *args` under the launcher; read its peak with `peak_rss_bytes`."""
    return [sys.executable, "-c", _RSS_LAUNCHER, *args]


def peak_rss_bytes(stderr) -> int:
    """The peak RSS in bytes the launcher wrote as the last line of stderr."""
    return int(stderr.splitlines()[-1]) * 1024
