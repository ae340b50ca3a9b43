import math
import os
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from asymauto import (
    INT_LIMIT,
    CoverageError,
    RangeError,
    compress,
    duplicate,
    enumerate_smooth,
    leading_ones,
    max_run,
    max_run_recursive,
    max_run_recursive_table,
    periodic,
    seq_leading_prime,
    seq_run_parity,
    seq_sqrt_parity,
    seq_two_three,
    sequence_from_file,
    shift,
)
from asymauto import seqlib
from asymauto.seqlib import _fill_runs, _leading_ones_u64, _max_run_u64

from helpers import (
    duplicate_by_runs,
    is_prime_by_trial,
    labels_by_splitlines,
    leading_ones_by_string,
    leading_prime_naive,
    max_run_by_string,
    peak_rss_bytes,
    python_with_peak_rss,
    run_parity_naive,
    sqrt_parity_naive,
    two_three_naive,
)


def test_leading_ones_examples():
    assert leading_ones(0) == 0
    assert leading_ones(123) == 4
    for m in range(1, 21):
        assert leading_ones(2**m - 1) == m
    edges = {
        e
        for k in range(1, 64)
        for e in (2**k - 1, 2**k, 2**k + 1, *((2**k - 1) << j for j in range(64 - k)))
        if e < INT_LIMIT
    }
    edges = sorted(edges | {0})
    got = _leading_ones_u64(np.array(edges, dtype=np.uint64))
    assert got.tolist() == [leading_ones(e) for e in edges]


def test_max_run_examples():
    assert max_run(0) == 0
    assert max_run(1234) == 2
    for m in range(1, 21):
        assert max_run(2**m - 1) == m


def test_string_scan_oracles():
    n = 1 << 16
    lam = _leading_ones_u64(np.arange(n, dtype=np.uint64))
    kap = _max_run_u64(np.arange(n, dtype=np.uint64))
    for i in range(n):
        assert int(lam[i]) == leading_ones_by_string(i)
        assert int(kap[i]) == max_run_by_string(i)


def test_max_run_recursive():
    assert max_run_recursive(1234) == 2
    # limits inside, at and past each level's end clip the last level every way
    for limit in [*range(1, 301), 1 << 16, (1 << 16) + 5]:
        table = max_run_recursive_table(limit)
        kap = _max_run_u64(np.arange(limit, dtype=np.uint64)).astype(np.uint8)
        assert np.array_equal(table, kap), limit
    for i in range(1 << 12):
        assert max_run_recursive(i) == max_run(i)


@given(st.integers(0, 2**40 - 1))
def test_max_run_halving(n):
    assert max_run_recursive(2 * n) == max_run(n)
    assert max_run_recursive(n) == max_run(n)


def test_duplicate_examples():
    assert duplicate(0) == 1
    assert duplicate(5) == 13
    assert duplicate(6) == 14


def test_duplicate_matches_the_run_scan():
    for n in range(1 << 16):
        assert duplicate(n) == duplicate_by_runs(n), n
    rng = np.random.default_rng(26)
    for n in rng.integers(0, 1 << 62, 20_000, dtype=np.int64).tolist():
        assert duplicate(n) == duplicate_by_runs(n), n
    with pytest.raises(RangeError):
        duplicate(INT_LIMIT - 1)


def test_prime_flags_match_trial_division():
    assert seqlib._PRIME_FLAGS.tolist() == [is_prime_by_trial(i) for i in range(64)]


def test_duplicate_properties():
    seen = set()
    for n in range(1, 1 << 12):
        d = duplicate(n)
        assert max_run(d) == max_run(n) + 1
        assert d <= 3 * n
        assert d not in seen
        seen.add(d)


def test_leading_prime_sequence():
    f = seq_leading_prime()
    assert f(123) == 0  # leading-ones count 4 is composite
    assert f(0) == 0
    assert f(7) == 1


def test_leading_prime_exceptional_set():
    f = seq_leading_prime()
    n = 1 << 16
    vals = f.values(0, n)
    doubled = compress(f, 2, 1, 0).values(0, n)
    odd = compress(f, 2, 1, 1).values(0, n)
    bad = int(np.count_nonzero((vals != doubled) | (vals != odd)))
    assert bad <= 2 * (math.log2(n) + 1)


def test_run_parity_sequence():
    f = seq_run_parity()
    assert f(1234) == 0
    assert f(0) == 0
    assert f(1) == 1


def test_run_parity_not_near_constant():
    f = seq_run_parity()
    n = 1 << 18
    ones = int(np.count_nonzero(f.values(0, n)))
    assert ones >= n // 6
    assert n - ones >= n // 6


def test_sqrt_parity_sequence():
    f = seq_sqrt_parity()
    assert f(0) == 0
    assert f(3) == 1
    assert f(4) == 0


def test_two_three_values_and_coverage():
    f = seq_two_three()
    assert f.name == "two-three"
    expected = ["+1", "+1", "-1", "-1", "+1", "+1", "+1", "+1", "-1", "+1", "+1", "+1"]
    assert [f.label(n) for n in range(12)] == expected
    assert f(0) == 0  # +1
    assert f(8) == 1  # -1
    # the whole index range: past it is the 2**63 range error, never coverage
    assert f.limit == INT_LIMIT - 1
    f(INT_LIMIT - 1)
    with pytest.raises(RangeError) as exc:
        f(INT_LIMIT)
    assert not isinstance(exc.value, CoverageError)


TWO_THREE_STRIDES = [(1, 0), (2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]


def strided_block(f, k, a, first, count):
    """f(first), f(first + k**a), ... read through compress, so the leaf sees stride k**a."""
    q, r = divmod(first, k**a)
    return (compress(f, k, a, r) if a else f).values(q, count).tolist()


def test_two_three_run_length_fill_at_zero():
    # n = 0 lies below H_0 = 1 and takes its sign; one-term blocks included
    limit = 10**5
    f, naive = seq_two_three(), two_three_naive(limit)
    for k, a in TWO_THREE_STRIDES:
        for count in (1, 2, 3, 40):
            want = [naive(i * k**a) for i in range(count)]
            assert strided_block(f, k, a, 0, count) == want, (k, a, count)
    assert f(0) == 0


def test_two_three_run_length_fill_at_each_breakpoint():
    # blocks starting exactly at H_i and one or two terms before it, so the
    # breakpoint falls on the first, second or third term; strides up to 3**4
    limit = 10**6
    f, naive = seq_two_three(), two_three_naive(limit)
    for h in (e.value for e in enumerate_smooth(limit)):
        for k, a in TWO_THREE_STRIDES:
            step = k**a
            for first in (x for x in (h - 2 * step, h - step, h) if x >= 0):
                count = min(25, (limit - first) // step + 1)
                want = [naive(first + i * step) for i in range(count)]
                assert strided_block(f, k, a, first, count) == want, (h, k, a, first)


def test_two_three_run_length_fill_at_the_coverage_limit():
    # blocks ending on 10**6 and on the last index below 2**63, where one more term is a range error
    f = seq_two_three()
    for limit in (10**6, INT_LIMIT - 1):
        naive = two_three_naive(limit)
        for k, a in TWO_THREE_STRIDES:
            step = k**a
            for count in (1, 7, 200):
                first = limit - step * (count - 1)
                assert strided_block(f, k, a, first, count) == [
                    naive(first + i * step) for i in range(count)
                ]
                if limit == INT_LIMIT - 1:
                    with pytest.raises(RangeError):
                        strided_block(f, k, a, first, count + 1)


# ---------------------------------------------------------------------------
# run-length fill: two-three, sqrt-parity and leading-prime repeat one symbol
# per run between breakpoints
# ---------------------------------------------------------------------------


def test_two_three_exact_beside_the_largest_breakpoints(leaves):
    # near 2**63 adjacent indices are not distinct as float64, so a search
    # with a Python int needle would place H - 1 past the breakpoint H
    f, naive, _ = leaves["two-three"]
    top = [e.value for e in enumerate_smooth(INT_LIMIT - 1)[-64:]]
    probes = [n for h in top for n in (h - 1, h, h + 1) if n < INT_LIMIT]
    assert [f(n) for n in probes] == [naive(n) for n in probes]
    assert max(top) > 2**53


def block_at(f, first, step, count):
    """f(first), f(first + step), ... read through compress, so the leaf sees stride step."""
    if step == 1:
        return f.values(first, count).tolist()
    q, r = divmod(first, step)
    return compress(f, step, 1, r).values(q, count).tolist()


@st.composite
def progressions(draw):
    """(first, step, count) with the last term below 2**63, steps up to 2**62."""
    count = draw(st.one_of(st.just(1), st.integers(1, 300)), label="count")
    step = draw(st.one_of(st.integers(1, 1000), st.integers(1 << 32, 1 << 62)), label="step")
    step = min(step, (INT_LIMIT - 1) // max(count - 1, 1))
    span = step * (count - 1)
    at_top = draw(st.booleans(), label="at_top")
    first = INT_LIMIT - 1 - span if at_top else draw(st.integers(0, INT_LIMIT - 1 - span))
    return first, step, count


@given(st.sampled_from(["sqrt-parity", "leading-prime", "two-three"]), progressions())
def test_run_fill_on_random_progressions(leaves, name, prog):
    f, naive, _ = leaves[name]
    first, step, count = prog
    assert block_at(f, first, step, count) == [naive(first + i * step) for i in range(count)]


@given(st.lists(st.integers(1, INT_LIMIT - 1), max_size=40), progressions())
def test_fill_runs_against_bisect(points, prog):
    # breakpoints on and beside the end terms too: above 2**53 float64 cannot
    # tell them apart from the terms
    first, step, count = prog
    ends = (first, first + step * (count - 1))
    near = {e + d for e in ends for d in (-1, 0, 1)}
    points = sorted(p for p in set(points) | near if 0 < p < INT_LIMIT)
    symbols = (np.arange(len(points) + 1) % 256).astype(np.uint8)
    got = _fill_runs(np.array(points, dtype=np.uint64), symbols, first, step, count)
    want = [bisect_right(points, first + i * step) % 256 for i in range(count)]
    assert got.dtype == np.uint8 and got.tolist() == want


def count_isqrt(m: pytest.MonkeyPatch) -> list:
    """The terms seqlib takes `math.isqrt` of from now on, one entry per call."""
    calls = []

    def isqrt(n):
        calls.append(n)
        return math.isqrt(n)

    m.setattr(seqlib, "math", SimpleNamespace(isqrt=isqrt))
    return calls


def test_sqrt_parity_fallback_exact():
    # each term is read with a partner 2**62 away, so its block crosses more
    # squares than terms and takes the root of each term: 2 + 2 calls
    far = 1 << 62
    roots = (*range(1, 1 << 10), 1 << 16, (1 << 31) - 1, 1 << 31, 3037000499)
    edges = [r * r + e for r in roots for e in (-1, 0, 1) if r * r + e < INT_LIMIT]
    f = seq_sqrt_parity()
    with pytest.MonkeyPatch.context() as m:
        calls = count_isqrt(m)
        for n in [*edges, INT_LIMIT - 1]:
            first = n if n < far else n - far
            calls.clear()
            got = block_at(f, first, far, 2)
            assert got == [math.isqrt(first) & 1, math.isqrt(first + far) & 1], n
            assert len(calls) == 4, n
        # random 63-bit terms, 1,000 to a block
        rng = np.random.default_rng(11)
        for first, step in rng.integers(0, 1 << 52, size=(16, 2)).tolist():
            step += 1 << 52
            calls.clear()
            got = block_at(f, first, step, 1000)
            assert got == [math.isqrt(first + i * step) & 1 for i in range(1000)]
            assert len(calls) == 1002


@given(st.integers(2, 200), st.integers(0, 1 << 31), st.integers(0, 1))
def test_sqrt_parity_fallback_boundary(count, root, extra):
    # a block crossing count squares fills by runs from its 2 end roots; one more
    # square and it takes the root of each of its terms as well
    root = max(root, count)
    span = count + extra
    first, target = root * root, (root + span) ** 2
    step = -(-(target - first) // (count - 1))
    top = first + step * (count - 1)
    assert math.isqrt(top) - root == span
    with pytest.MonkeyPatch.context() as m:
        calls = count_isqrt(m)
        got = block_at(seq_sqrt_parity(), first, step, count)
    assert got == [math.isqrt(first + i * step) & 1 for i in range(count)]
    assert len(calls) == (count + 2 if extra else 2)


@pytest.mark.parametrize("make, scale, naive", [
    (seq_sqrt_parity, 1, sqrt_parity_naive),
    (lambda: compress(seq_sqrt_parity(), 5, 1, 0), 5, sqrt_parity_naive),
    (seq_leading_prime, 1, leading_prime_naive),
])
def test_run_fill_needs_no_per_term_statistics(monkeypatch, make, scale, naive):
    def refuse(x):
        raise AssertionError("per-term statistic on a run-length leaf")

    calls = count_isqrt(monkeypatch)
    monkeypatch.setattr(seqlib, "_leading_ones_u64", refuse)
    n = 1 << 18
    got = make().values(0, n).tolist()
    # the sqrt-parity leaf takes only the roots of its block's two ends
    assert len(calls) == (2 if naive is sqrt_parity_naive else 0)
    assert got == [naive(scale * i) for i in range(n)]


# ---------------------------------------------------------------------------
# run-parity by the 16-bit split: max_run(2**16 * h + l) is
# max(max_run(h), R[l], t(h) + L[l]), t(h) the trailing 1s of h
# ---------------------------------------------------------------------------

SPLIT_STEPS = [1, 7, 65535, 65536, 65537, 1 << 20]


def test_window_tables_match_the_word_statistics():
    runs, leading = seqlib._window_tables()
    words = np.arange(1 << 16, dtype=np.uint64)
    assert runs.dtype == leading.dtype == np.uint8
    assert np.array_equal(runs, _max_run_u64(words).astype(np.uint8))
    assert leading.tolist() == [leading_ones(w | 1 << 16) - 1 for w in range(1 << 16)]


@pytest.mark.parametrize("step", SPLIT_STEPS)
@pytest.mark.parametrize("count", [1, 2, 1000])
def test_run_parity_split_against_string_scan(step, count):
    span = step * (count - 1)
    mid = count // 2
    # the block at 0 and the block ending on 2**63 - 1, where h = 2**47 - 1
    starts = [0, INT_LIMIT - 1 - span]
    # the middle term on l = 0 right after h = 2**j - 1: the terms before it
    # join the j trailing 1s of h to the leading 1s of l (up to l = 0xFFFF)
    starts += [max(0, (1 << (j + 16)) - mid * step) for j in (1, 5, 20, 46)]
    starts += np.random.default_rng(step + count).integers(0, INT_LIMIT - span, 4).tolist()
    f = seq_run_parity()
    for first in starts:
        ns = [first + i * step for i in range(count)]
        want = [run_parity_naive(n) for n in ns]
        assert want == [max_run(n) & 1 for n in ns]
        assert block_at(f, first, step, count) == want, (first, step, count)


@given(
    st.data(),
    st.one_of(st.sampled_from(SPLIT_STEPS), st.integers(1, 1 << 18)),
    st.integers(0, 1 << 20),
)
def test_run_parity_split_through_shift_and_compress(data, step, m):
    count = data.draw(st.integers(1, 2000), label="count")
    first = data.draw(st.integers(m, INT_LIMIT - 1 - step * (count - 1)), label="first")
    got = block_at(shift(seq_run_parity(), m), first - m, step, count)
    assert got == [run_parity_naive(first + i * step) for i in range(count)]


def test_run_parity_split_evaluates_each_h_once(monkeypatch):
    # steps below 2**16 run the word loop on the distinct h = n >> 16 only;
    # a step of 2**20 still runs it on every term
    sizes, real = [], _max_run_u64

    def spy(x):
        sizes.append(len(x))
        return real(x)

    monkeypatch.setattr(seqlib, "_max_run_u64", spy)
    f, n = seq_run_parity(), 1 << 18
    want = [run_parity_naive(i) for i in range(n + 1)]
    assert f.values(0, n).tolist() == want[:n]
    assert shift(f, 1).values(0, n).tolist() == want[1:]
    assert sizes and max(sizes) <= n // 2**16 + 2
    sizes.clear()
    strided = compress(f, 2, 20, 5).values(0, n)
    assert sizes == [n]
    assert strided[:64].tolist() == [run_parity_naive((i << 20) + 5) for i in range(64)]
    # 0xFFFF and 0xFFFF + 65537 = 2**17 cross three h for two terms
    sizes.clear()
    assert block_at(f, 0xFFFF, 65537, 2) == [0, 1]
    assert sizes == [2]


def test_shift_behavior():
    f = seq_sqrt_parity()
    assert shift(f, 0) is f
    for n in range(10**4):
        assert shift(shift(f, 1), 1)(n) == f(n + 2)
    assert shift(f, 1)(3) == 0
    with pytest.raises(RangeError):
        shift(f, 1 << 62)(1 << 62)


def test_compress_behavior():
    f = seq_run_parity()
    ident = compress(f, 2, 0, 0)
    halves = compress(f, 2, 1, 0)
    for n in range(2048):
        assert ident(n) == f(n)
        assert halves(n) == f(2 * n) == max_run(n) % 2
    with pytest.raises(ValueError):
        compress(f, 2, 1, 2)
    with pytest.raises(RangeError):
        compress(f, 2, 40, 0)(1 << 40)


def test_periodic_sequence():
    p = periodic([0, 1, 1])
    assert p(5) == 1
    assert periodic([7])(12345) == 7
    q = shift(p, 3)
    for n in range(10**4):
        assert q(n) == p(n)
    with pytest.raises(ValueError):
        periodic([])


def test_sequence_from_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("+1\n-1\n-1\n+1\n", encoding="utf-8")
    f = sequence_from_file(path)
    assert f.alphabet == ("+1", "-1")
    assert [f(n) for n in range(4)] == [0, 1, 1, 0]
    assert f.values(0, 4).tolist() == [0, 1, 1, 0]
    assert compress(f, 2, 1, 1).values(0, 2).tolist() == [1, 0]
    with pytest.raises(CoverageError):
        f(4)
    with pytest.raises(ValueError):
        (tmp_path / "empty.txt").write_text("", encoding="utf-8")
        sequence_from_file(tmp_path / "empty.txt")


# every line break str.splitlines knows, and labels of 0, 1, 2 and more bytes,
# multi-byte UTF-8 ones among them
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]
FILE_LABEL_CHOICES = ["", "a", "b", "0", "1", "+1", "-1", "\u00e9", "\u20ac", "\u65e5\u672c",
                      "\U0001f600", "abc", "long label"]


def _load_with_block(path, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqlib, "_FILE_BLOCK", block)
        return sequence_from_file(path)


def _assert_loads_as_splitlines(path, block):
    alphabet, ids = labels_by_splitlines(path)
    f = _load_with_block(path, block)
    assert f.alphabet == alphabet
    assert f.limit == len(ids) - 1
    assert f.values(0, len(ids)).tolist() == ids


@given(
    st.lists(st.tuples(st.sampled_from(FILE_LABEL_CHOICES), st.sampled_from(LINE_BREAKS)),
             min_size=1, max_size=60),
    st.booleans(),
    st.sampled_from([1, 2, 3, 5, 8, 64, 1 << 18]),
)
def test_file_loader_matches_splitlines(tmp_path_factory, lines, trailing, block):
    text = "".join(label + brk for label, brk in lines)
    if not trailing:
        text = text[: -len(lines[-1][1])]
    assume(text)
    path = tmp_path_factory.mktemp("labels") / "labels.txt"  # a fresh file per example
    path.write_bytes(text.encode("utf-8"))
    _assert_loads_as_splitlines(path, block)


@pytest.mark.parametrize("block", range(1, 9))
def test_file_loader_blocks_split_anywhere(tmp_path, block):
    # \r\n, U+2028 and labels of every length fall on every side of the block cuts
    text = "a\r\nbb\r\n\r\nccc\rd\u2028\u00e9\r\n\x85ee\x1c\r\n\r\nf\r\x85\r\u2029g"
    path = tmp_path / "mixed.txt"
    path.write_bytes(text.encode("utf-8"))
    _assert_loads_as_splitlines(path, block)
    short = tmp_path / "short.txt"  # lines of at most 2 bytes only: the keyed path
    short.write_bytes("a\r\n\r\nbb\n\u00e9\rb\x0ba\r\x85\n".encode("utf-8") * 3)
    _assert_loads_as_splitlines(short, block)


def test_every_line_break_splits(tmp_path):
    path = tmp_path / "breaks.txt"
    path.write_bytes("".join(f"x{brk}" for brk in LINE_BREAKS).encode("utf-8"))
    for block in (1, 4, 1 << 18):
        f = _load_with_block(path, block)
        assert f.alphabet == ("x",)
        assert f.limit == len(LINE_BREAKS) - 1


FILE_ERRORS = {
    "empty": b"",
    "257 labels, long lines": "".join(f"{i}\n" for i in range(257)).encode(),
    "300 labels of 2 bytes": "".join(
        f"{chr(65 + i // 26)}{chr(97 + i % 26)}\n" for i in range(300)).encode(),
    "invalid start byte": b"a\nb\n\xff\nc\n",
    "invalid late": b"ab\n" * 40 + b"\xe2\x28\xa1\n",
    "truncated inside": b"a\n" * 10 + b"\xe2\x82\n",
    "truncated at the end": b"a\n\xe2\x82",
    "invalid in a long line": b"abcdef\n" * 5 + b"xy\xc3\x28z\n",
}


@pytest.mark.parametrize("name", FILE_ERRORS)
def test_file_loader_errors_match_splitlines(tmp_path, name):
    path = tmp_path / "bad.txt"
    path.write_bytes(FILE_ERRORS[name])
    with pytest.raises(ValueError) as want:
        labels_by_splitlines(path)
    if isinstance(want.value, UnicodeDecodeError):
        # the loader names the file and the first bad byte's offset in it
        expected = (ValueError, f"file:{path}: invalid UTF-8 at byte {want.value.start}: "
                                f"{want.value.reason}")
    else:
        expected = (type(want.value), str(want.value))
    for block in (3, 16, 1 << 18):
        with pytest.raises(ValueError) as got:
            _load_with_block(path, block)
        assert (type(got.value), str(got.value)) == expected


_LOAD = """import sys
from asymauto import sequence_from_file
try:
    sequence_from_file(sys.argv[1])
except ValueError as exc:
    print(exc)
"""


def _load_in_child(path) -> tuple:
    """(peak RSS in bytes, stdout) of a child that loads a `file:` sequence or prints why not."""
    env = dict(os.environ, PYTHONPATH=str(Path(seqlib.__file__).parents[1]))
    argv = python_with_peak_rss("-c", _LOAD, str(path))
    done = subprocess.run(argv, env=env, capture_output=True, check=True, text=True)
    return peak_rss_bytes(done.stderr), done.stdout


@pytest.mark.parametrize("brk", ["\n", "\r", "\u2028"])
def test_file_memory_stays_near_the_table(tmp_path, brk):
    # 2**22 one-byte labels: a 4 MiB table, where the whole text and a list of every
    # line took about 50 MiB; a file without \n is cut at its other breaks
    n = 1 << 22
    lines = np.empty((n, 1 + len(brk.encode())), dtype=np.uint8)
    lines[:, 0] = (np.arange(n) % 3).astype(np.uint8) + ord("0")
    lines[:, 1:] = np.frombuffer(brk.encode(), dtype=np.uint8)
    big, small = tmp_path / "big.txt", tmp_path / "small.txt"
    big.write_bytes(lines.tobytes())
    small.write_bytes(lines[:2000].tobytes())
    (peak, _), (base, _) = _load_in_child(big), _load_in_child(small)
    assert peak - base < 4 * n, (peak, base)


def test_file_decode_error_copies_no_prefix(tmp_path):
    # 40,000 lines of 1,000 bytes: a one-byte table, so the bad last line's error
    # was the one copy of the 40 MB before it
    body = (b"a" * 999 + b"\n") * 40_000
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_bytes(body + b"b\n")
    bad.write_bytes(body + b"\xff\n")
    (base, _), (peak, err) = _load_in_child(good), _load_in_child(bad)
    assert err == f"file:{bad}: invalid UTF-8 at byte 40000000: invalid start byte\n"
    assert peak - base < len(body) // 4, (peak, base)


def test_batch_matches_scalar_on_builtins():
    two_three = two_three_naive(1 << 22)
    rng = np.random.default_rng(5)
    for f, naive in (
        (seq_leading_prime(), leading_prime_naive),
        (seq_run_parity(), run_parity_naive),
        (seq_sqrt_parity(), sqrt_parity_naive),
        (seq_two_three(), two_three),
        (periodic([0, 1, 1, 0]), lambda n: (0, 1, 1, 0)[n % 4]),
        (shift(seq_run_parity(), 3), lambda n: run_parity_naive(n + 3)),
        (compress(seq_leading_prime(), 2, 2, 1), lambda n: leading_prime_naive(4 * n + 1)),
    ):
        for start, r in zip(rng.integers(0, 1 << 18, 8).tolist(), rng.integers(0, 64, 8).tolist()):
            assert f.values(start, 256).tolist() == [naive(start + i) for i in range(256)], (
                f.name, start
            )
            got = compress(f, 2, 6, r).values(start >> 6, 64).tolist()
            assert got == [naive(64 * ((start >> 6) + i) + r) for i in range(64)], (f.name, start, r)
            assert f(start) == naive(start)


# ---------------------------------------------------------------------------
# values(start, count) against the naive scalar oracles, for builtins
# nested in random shift/compress layers
# ---------------------------------------------------------------------------

FILE_LABELS = ["b", "a", "a", "c", "b", "c", "c", "a", "b", "b", "a"] * 7  # 77 lines


@pytest.fixture(scope="module")
def label_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("seq") / "labels.txt"
    path.write_text("\n".join(FILE_LABELS) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def leaves(label_file):
    """name -> (sequence, naive scalar oracle, last covered index)."""
    full = INT_LIMIT - 1
    file_seq = sequence_from_file(label_file)
    return {
        "leading-prime": (seq_leading_prime(), leading_prime_naive, full),
        "run-parity": (seq_run_parity(), run_parity_naive, full),
        "sqrt-parity": (seq_sqrt_parity(), sqrt_parity_naive, full),
        "two-three": (seq_two_three(), two_three_naive(full), full),
        "periodic": (periodic([2, 0, 1, 1, 0]), lambda n: (2, 0, 1, 1, 0)[n % 5], full),
        "file": (
            file_seq, lambda n: file_seq.alphabet.index(FILE_LABELS[n]), len(FILE_LABELS) - 1
        ),
    }


LAYER = st.one_of(
    st.tuples(st.just("shift"), st.integers(0, 1 << 20)),
    st.tuples(st.just("compress"), st.integers(2, 5), st.integers(0, 6), st.integers(0, 10**6)),
)


def nest(f, layers):
    """f wrapped in the layers, and n -> its leaf index as nested plain closures."""
    index = lambda n: n  # noqa: E731
    for layer in layers:
        if layer[0] == "shift":
            m = layer[1]
            f, index = shift(f, m), (lambda i, m: lambda n: i(n + m))(index, m)
        else:
            _, k, alpha, r = layer
            r %= k**alpha
            f = compress(f, k, alpha, r)
            index = (lambda i, q, r: lambda n: i(q * n + r))(index, k**alpha, r)
    return f, index


def last_valid(index, cover: int):
    """Largest n whose leaf index stays within [0, cover], or -1; index is affine."""
    base = index(0)
    return -1 if base > cover else (cover - base) // (index(1) - base)


@given(
    st.data(),
    st.sampled_from(["leading-prime", "run-parity", "sqrt-parity", "two-three",
                     "periodic", "file"]),
    st.lists(LAYER, max_size=3),
)
def test_values_match_naive_on_random_progressions(leaves, data, name, layers):
    # the compress layers set the stride of the leaf progression
    f, naive, cover = leaves[name]
    f, index = nest(f, layers)
    top = last_valid(index, cover)
    assume(top >= 0)
    start = data.draw(st.integers(0, top), label="start")
    count = data.draw(st.integers(0, min(48, top - start + 1)), label="count")
    got = f.values(start, count).tolist()
    assert got == [naive(index(start + i)) for i in range(count)]


@given(
    st.sampled_from(["leading-prime", "run-parity", "sqrt-parity", "two-three", "periodic"]),
    st.lists(LAYER, max_size=3),
    st.integers(1, 40),
)
def test_values_at_the_2_63_boundary(leaves, name, layers, count):
    # the progression ends on the last n whose leaf index k**a * n + r + m is
    # below 2**63; one more term overflows and is a RangeError, not coverage
    f, naive, _ = leaves[name]
    f, index = nest(f, layers)
    top = last_valid(index, INT_LIMIT - 1)
    assume(top >= 0)
    count = min(count, top + 1)
    start = top - (count - 1)
    want = [naive(index(start + i)) for i in range(count)]
    assert f.values(start, count).tolist() == want
    with pytest.raises(RangeError) as exc:
        f.values(start, count + 1)
    assert not isinstance(exc.value, CoverageError)
    with pytest.raises(RangeError):
        f(top + 1)


@given(st.lists(LAYER, max_size=2), st.integers(1, 20))
def test_values_at_the_coverage_edge(leaves, layers, count):
    # only file: has a coverage short of the 2**63 range
    f, naive, cover = leaves["file"]
    f, index = nest(f, layers)
    top = last_valid(index, cover)
    assume(top >= 0)
    count = min(count, top + 1)
    start = top - (count - 1)
    want = [naive(index(start + i)) for i in range(count)]
    assert f.values(start, count).tolist() == want
    with pytest.raises(CoverageError):
        f.values(start, count + 1)
    with pytest.raises(CoverageError):
        f(top + 1)


def test_values_argument_checks():
    f = seq_sqrt_parity()
    assert f.values(INT_LIMIT + 5, 0).tolist() == []
    for args in ((-1, 1), (0, -1)):
        with pytest.raises(ValueError):
            f.values(*args)
    # the scale of nested compressions may pass 2**63 while n = 0 still maps inside
    deep = compress(compress(f, 2, 40, 0), 2, 40, 0)
    assert deep(0) == 0
    with pytest.raises(RangeError):
        deep(1)


def test_alphabet_size_checked_before_tables(tmp_path):
    with pytest.raises(ValueError, match="between 1 and 256"):
        periodic([300])
    path = tmp_path / "wide.txt"
    path.write_text("\n".join(str(i) for i in range(257)) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="between 1 and 256"):
        sequence_from_file(path)


@given(st.integers(1, 6), st.integers(1, 10))
def test_leading_ones_plateau(pi, alpha):
    base = ((1 << pi) - 1) << alpha
    for m in range(1 << (alpha - 1)):
        assert leading_ones(base + m) == pi
