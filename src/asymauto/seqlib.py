"""Sequences over small alphabets and the binary digit statistics behind them.

A Sequence is n -> leaf(scale * n + offset): a leaf evaluator over arithmetic
progressions plus the index arithmetic of shift and compress.  Its one
evaluation path, `values(start, count)`, reads count consecutive terms,
which is the leaf progression first = scale * start + offset with stride
scale; it checks the last term once against 2**63 and the leaf's coverage
and calls `leaf(first, step, count)` once.  A leaf fills its block however
its structure allows.  The piecewise-constant leaves fill by run lengths
through `_fill_runs`, one `np.repeat` over the runs between the breakpoints
the block crosses: two-three between its 3-smooth numbers, leading-prime
between the 2,016 numbers 2**a - 2**b below 2**63, and sqrt-parity between
the squares, which it lists with `math.isqrt` (a block that crosses more
squares than it has terms takes `math.isqrt` of each term instead).  Run-parity
splits n = 2**16 * h + l: max_run(n) = max(max_run(h), R[l], t(h) + L[l])
with t(h) the trailing 1s of h and R, L the longest run and the leading 1s
of the 16-bit window l, so a block that crosses fewer h than it has terms
evaluates the h statistics once per h, fills them by runs and looks up l;
other blocks, and periodic sequences, evaluate the uint64 progression from
`_progression` with whole-array word operations.  `file:` slices its table
with a step; it loads the table in blocks of whole lines by one of two paths.
An ASCII block whose lines have at most 2 bytes has its line breaks turned into
\n by bytes methods and is keyed by the 2 bytes before each \n, one lookup in
a 65,536-entry id table per line, so only a label seen first goes through
Python; any other block is decoded and split by `str.splitlines`, and each line
is looked up in the label dict.  Of the per-term word statistics, a bit
length is the popcount of the smeared word.  Nothing here touches floating
point.  Sequences are immutable after construction; evaluation is pure.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .digits import INT_LIMIT
from .errors import CoverageError, RangeError, check_budget
from .smooth import enumerate_smooth

_U1 = np.uint64(1)


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"sequence index must be nonnegative, got {n}")
    if n >= INT_LIMIT:
        raise RangeError(f"sequence index {n} exceeds the 2**63 range")


def _smear(x: np.ndarray) -> np.ndarray:
    """2**bit_length - 1 per element of a uint64 array: every bit below the top one set."""
    x = x | (x >> _U1)
    for s in (2, 4, 8, 16, 32):
        x |= x >> np.uint64(s)
    return x


# ---------------------------------------------------------------------------
# digit statistics
# ---------------------------------------------------------------------------


def leading_ones(n: int) -> int:
    """Count of leading 1 digits in the binary expansion of n."""
    _check_index(n)
    length = n.bit_length()
    flipped = ~n & ((1 << length) - 1)
    return length - flipped.bit_length()


def _leading_ones_u64(x: np.ndarray) -> np.ndarray:
    mask = _smear(x)  # x ^ mask is ~x & mask: the zeros below the top bit
    return np.bitwise_count(mask) - np.bitwise_count(_smear(x ^ mask))


def max_run(n: int) -> int:
    """Length of the longest block of consecutive 1s in the binary expansion."""
    _check_index(n)
    count = 0
    while n:
        n &= n >> 1
        count += 1
    return count


def _max_run_u64(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    out = np.zeros(x.shape, dtype=np.uint64)
    while True:
        alive = x != 0
        if not alive.any():
            return out
        out += alive
        x &= x >> _U1


def max_run_recursive(n: int) -> int:
    """Longest 1-run computed by the halving recursion instead of a scan.

    Dropping the last bit keeps the statistic; appending a 1 extends it
    exactly when the remaining suffix is already a solid run of that length.
    """
    _check_index(n)
    if n < 2:
        return n
    half = n >> 1
    k = max_run_recursive(half)
    if n & 1 and half & ((1 << k) - 1) == (1 << k) - 1:
        return k + 1
    return k


def max_run_recursive_table(limit: int) -> np.ndarray:
    """The same recursion evaluated bottom-up for every n < limit.

    Each level [2**j, 2**(j+1)) below limit is filled from its parents n >> 1,
    so the returned uint8 table is the recursion itself in batch form.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    out = np.zeros(limit, dtype=np.uint8)
    level = 1
    while level < limit:
        ns = np.arange(level, min(2 * level, limit), dtype=np.uint64)
        half = ns >> _U1
        k = out[half].astype(np.uint64)
        ones = (_U1 << k) - _U1  # the low k bits
        out[level : 2 * level] = k + ((ns & _U1) & ((half & ones) == ones))
        level *= 2
    return out


def duplicate(n: int) -> int:
    """Insert one extra 1 into the earliest longest 1-block; duplicate(0) = 1."""
    _check_index(n)
    if n == 0:
        return 1
    bits = format(n, "b")
    # no block is longer than max_run(n), so the first block of that many 1s is a longest one
    at = bits.index("1" * max_run(n))
    out = int(bits[:at] + "1" + bits[at:], 2)
    if out >= INT_LIMIT:
        raise RangeError(f"duplicate({n}) exceeds the 2**63 range")
    return out


# ---------------------------------------------------------------------------
# the sequence abstraction
# ---------------------------------------------------------------------------

_MAX_INDEX = INT_LIMIT - 1


def _check_alphabet_size(name: str, size: int) -> None:
    if not 1 <= size <= 256:
        raise ValueError(f"{name}: alphabet has {size} symbols, need between 1 and 256")


def _progression(first: int, step: int, count: int) -> np.ndarray:
    """The uint64 indices first, first + step, ..., first + step * (count - 1)."""
    ns = np.arange(count, dtype=np.uint64)
    if step != 1:
        ns *= np.uint64(step)
    if first:
        ns += np.uint64(first)
    return ns


def _fill_runs(breaks: np.ndarray, symbols: np.ndarray, first: int, step: int, count: int):
    """The block at first, first + step, ... of the map symbols[i] on [breaks[i-1], breaks[i]).

    `breaks` is sorted uint64 with one entry fewer than `symbols`: symbols[0]
    holds below breaks[0] and the last symbol from the last break on.  The
    terms before a breakpoint b inside the block number ceil((b - first) / step),
    so the block is one `np.repeat` over as many runs as it crosses breakpoints.
    """
    top = first + step * (count - 1)
    # uint64 needles: a Python int would promote the search to float64
    i0 = int(np.searchsorted(breaks, np.uint64(first), side="right"))
    i1 = int(np.searchsorted(breaks, np.uint64(top), side="right"))
    ahead = breaks[i0:i1] - np.uint64(first) + np.uint64(step - 1)
    before = (ahead // np.uint64(step)).astype(np.int64)
    return np.repeat(symbols[i0 : i1 + 1], np.diff(before, prepend=0, append=count))


class Sequence:
    """The map n -> leaf(scale * n + offset) into indices of a label alphabet.

    `leaf(first, step, count)` returns the symbol indices at the leaf indices
    first, first + step, ..., all in [0, limit], and `limit` is capped below
    2**63.  Shift and compress only compose `scale` and `offset`, so every
    sequence evaluates through the one range check in `values`.
    """

    __slots__ = ("name", "alphabet", "_leaf", "limit", "scale", "offset")

    def __init__(self, name: str, alphabet, leaf, limit: int):
        alphabet = tuple(alphabet)
        _check_alphabet_size(name, len(alphabet))
        if len(set(alphabet)) != len(alphabet):
            raise ValueError(f"{name}: alphabet labels must be distinct")
        self.name = name
        self.alphabet = alphabet
        self._leaf = leaf
        self.limit = min(limit, _MAX_INDEX)
        self.scale = 1
        self.offset = 0

    def _compose(self, name: str, scale: int, offset: int) -> "Sequence":
        """The sequence n -> self(scale * n + offset), on the same leaf."""
        g = Sequence(name, self.alphabet, self._leaf, self.limit)
        g.scale = self.scale * scale
        g.offset = self.scale * offset + self.offset
        return g

    def values(self, start: int, count: int) -> np.ndarray:
        """Symbol indices at start, ..., start + count - 1, as uint8."""
        start, count = operator.index(start), operator.index(count)
        if start < 0 or count < 0:
            raise ValueError(f"need start >= 0 and count >= 0; got {start}, {count}")
        if count == 0:
            return np.zeros(0, dtype=np.uint8)
        first = self.scale * start + self.offset
        top = first + self.scale * (count - 1)
        if top > self.limit:
            where = f"{self.name}: index {start + count - 1} reaches leaf index {top}"
            if top >= INT_LIMIT:
                raise RangeError(f"{where}, past the 2**63 range")
            raise CoverageError(f"{where}, beyond coverage [0, {self.limit}]")
        # a one-term block has no stride; the scale may pass 2**64 there
        step = self.scale if count > 1 else 1
        return self._leaf(first, step, count).astype(np.uint8, copy=False)

    def __call__(self, n: int) -> int:
        return int(self.values(n, 1)[0])

    def label(self, n: int) -> str:
        return self.alphabet[self(n)]

    def __repr__(self) -> str:
        return f"Sequence({self.name!r}, |alphabet|={len(self.alphabet)})"


def compress(f: Sequence, k: int, alpha: int, r: int) -> Sequence:
    """Kernel element n -> f(k**alpha * n + r)."""
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    if alpha < 0:
        raise ValueError(f"depth must be nonnegative, got {alpha}")
    # k >= 2, so alpha >= 63 is past 2**63: refuse before computing the power
    if alpha >= 63 or k**alpha >= INT_LIMIT:
        raise RangeError(f"{k}**{alpha} exceeds the 2**63 index range")
    factor = k**alpha
    if not 0 <= r < factor:
        raise ValueError(f"residue {r} not in [0, {k}**{alpha})")
    return f._compose(f"compress:{k}:{alpha}:{r}:{f.name}", factor, r)


def shift(f: Sequence, m: int) -> Sequence:
    """The m-fold shift n -> f(n + m)."""
    if m < 0:
        raise ValueError(f"shift must be nonnegative, got {m}")
    if m == 0:
        return f
    return f._compose(f"shift:{m}:{f.name}", 1, m)


def periodic(values) -> Sequence:
    """The periodic sequence repeating `values` (symbol indices)."""
    values = tuple(int(v) for v in values)
    if not values:
        raise ValueError("periodic sequence needs at least one value")
    if min(values) < 0:
        raise ValueError("symbol indices must be nonnegative")
    name = "periodic:" + ",".join(str(v) for v in values)
    size = max(values) + 1
    _check_alphabet_size(name, size)
    table = np.array(values, dtype=np.uint8)
    q = np.uint64(len(values))

    def leaf(first, step, count):
        return table[(_progression(first, step, count) % q).astype(np.int64)]

    return Sequence(name, (str(i) for i in range(size)), leaf, _MAX_INDEX)


# bytes per read of a sequence file; a block runs to the last line break of its read
_FILE_BLOCK = 1 << 18

# the line breaks of str.splitlines besides \n and \r\n, as UTF-8 bytes: an ASCII
# block turns the one-byte ones into \n by one translate; U+0085, U+2028 and
# U+2029 only cut a read that has no \n
_ONE_BYTE_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_ASCII_BREAKS = bytes.maketrans(b"".join(_ONE_BYTE_BREAKS), b"\n" * 6)
_WIDE_BREAKS = (b"\xc2\x85", b"\xe2\x80\xa8", b"\xe2\x80\xa9")


def _break_end(chunk: bytes) -> int:
    """The end of the last line break in a read, or 0.

    Only a read without b"\\n" is searched for the other breaks, and its final
    b"\\r" does not count, since it may be half of a \\r\\n.
    """
    end = chunk.rfind(b"\n") + 1
    if not end:
        for brk in _ONE_BYTE_BREAKS + _WIDE_BREAKS:
            at = chunk.rfind(brk, 0, len(chunk) - (brk == b"\r"))
            if at >= 0:
                end = max(end, at + len(brk))
    return end


def _file_blocks(fh):
    """(file offset, bytes) of each run of whole lines, cut after the last line break of a read.

    A read with no line break joins the next one, so no \\r\\n or UTF-8
    character is split.  The last block is the rest of the file.
    """
    offset, pending = 0, []
    while chunk := fh.read(_FILE_BLOCK):
        cut = _break_end(chunk)
        if not cut:
            pending.append(chunk)
            continue
        view = memoryview(chunk)
        block = b"".join([*pending, view[:cut]])
        yield offset, block
        offset += len(block)
        pending = [view[cut:]]
    if tail := b"".join(pending):
        yield offset, tail


def _block_ids(block: bytes, offset: int, index: dict, key_ids: np.ndarray, name: str):
    """The label id of each line of a block `offset` bytes into the file `name`.

    Unseen labels join `index` in order.  An ASCII block whose lines all have
    at most 2 bytes is keyed in numpy; any other block is split by
    `str.splitlines`.  Ids of 256 and above wrap: the caller refuses such an
    alphabet anyway.
    """
    if block.isascii():
        # \r\n first, then the one-byte breaks
        keyed = block.replace(b"\r\n", b"\n") if b"\r" in block else block
        if any(byte in keyed for byte in _ONE_BYTE_BREAKS):
            keyed = keyed.translate(_ASCII_BREAKS)
        if not keyed.endswith(b"\n"):
            keyed += b"\n"
        # two leading line breaks, so every line has two bytes before its end
        buf = np.frombuffer(b"\n\n" + keyed, dtype=np.uint8)
        text = buf != 10
        if not (text[:-2] & text[1:-1] & text[2:]).any():
            # key each line by the 2 bytes before its end, whose bytes after their
            # last \n are the label, so one key never names two labels
            pairs = buf[:-2].astype(np.uint16)
            pairs <<= 8
            pairs |= buf[1:-1]
            keys = pairs.take(np.flatnonzero(buf[2:] == 10))
            ids = key_ids.take(keys)
            unseen = ids < 0
            if unseen.any():
                fresh, first = np.unique(keys[unseen], return_index=True)
                for key in fresh[np.argsort(first)].tolist():
                    label = bytes(divmod(key, 256)).rpartition(b"\n")[2].decode("ascii")
                    key_ids[key] = index.setdefault(label, len(index))
                ids = key_ids.take(keys)
            return ids.astype(np.uint8)
    try:
        labels = block.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        at = offset + exc.start
        raise ValueError(f"{name}: invalid UTF-8 at byte {at}: {exc.reason}") from None
    for label in dict.fromkeys(labels):
        index.setdefault(label, len(index))
    return np.fromiter(map(index.__getitem__, labels), np.int64, len(labels)).astype(np.uint8)


def sequence_from_file(path) -> Sequence:
    """One symbol label per line; the line count bounds the evaluable range.

    Lines split as `str.splitlines` splits them.  The file is read in blocks
    of about `_FILE_BLOCK` bytes: an ASCII block of lines of at most 2 bytes
    maps a 2-byte key per line through one 65,536-entry id table, and only
    labels it sees first go through Python; any other block is decoded and
    split by `str.splitlines`, and every line is looked up in the label dict.
    First appearance orders the alphabet.  Invalid UTF-8 is refused as
    `file:PATH: invalid UTF-8 at byte P: REASON`, P the file offset of the
    first bad byte.  A table over the budget is refused at the block that
    passes it, before any more of the file is read.
    """
    name = f"file:{path}"
    index: dict = {}
    key_ids = np.full(1 << 16, -1, dtype=np.int32)
    parts, lines = [], 0
    with open(path, "rb") as fh:
        for offset, block in _file_blocks(fh):
            parts.append(_block_ids(block, offset, index, key_ids, name))
            lines += len(parts[-1])
            check_budget(lines, "bytes", f"value table of {name} to line {lines}")
    if not parts:
        raise ValueError(f"{path}: empty sequence file")
    _check_alphabet_size(name, len(index))
    table = np.concatenate(parts)

    def leaf(first, step, count):
        return table[first : first + step * (count - 1) + 1 : step].copy()

    return Sequence(name, index, leaf, len(table) - 1)


# ---------------------------------------------------------------------------
# built-in example sequences
# ---------------------------------------------------------------------------


# leading_ones(n) <= 63 for indices below 2**63
_PRIME_FLAGS = np.array(
    [m > 1 and all(m % d for d in range(2, m)) for m in range(64)], dtype=np.uint8
)

# leading_ones is a - b from 2**a - 2**b up to the next of these 2,016 numbers
# (0 <= b < a <= 63), and 0 below the first one, 1.  Listed by bit length a,
# then by a - b = 1, ..., a, they increase; whole-array, not a Python loop,
# since every import builds them
_BIT_LENGTH = np.repeat(np.arange(1, 64, dtype=np.uint64), np.arange(1, 64))
_ONES = np.arange(1, 2017, dtype=np.uint64) - _BIT_LENGTH * (_BIT_LENGTH - _U1) // np.uint64(2)
_LEADING_BREAKS = (_U1 << _BIT_LENGTH) - (_U1 << (_BIT_LENGTH - _ONES))
_LEADING_PRIME = _PRIME_FLAGS[np.append(np.uint64(0), _ONES)]


def seq_leading_prime() -> Sequence:
    """1 exactly when the count of leading binary 1s is prime."""

    def leaf(first, step, count):
        return _fill_runs(_LEADING_BREAKS, _LEADING_PRIME, first, step, count)

    return Sequence("leading-prime", ("0", "1"), leaf, _MAX_INDEX)


_WINDOW = 16
_LOW = (1 << _WINDOW) - 1


@functools.cache
def _window_tables():
    """R[l] and L[l] over 16-bit words l: the longest 1-run and the leading 1s of the window.

    Built on first use, so importing the package does not pay for them.
    """
    words = np.arange(1 << _WINDOW, dtype=np.uint64) | np.uint64(1 << _WINDOW)
    leading = (_leading_ones_u64(words) - 1).astype(np.uint8)
    return max_run_recursive_table(1 << _WINDOW), leading


def seq_run_parity() -> Sequence:
    """Parity of the longest block of consecutive binary 1s.

    With n = 2**16 * h + l and t(h) the trailing 1s of h, max_run(n) is
    max(max_run(h), R[l], t(h) + L[l]), R and L from `_window_tables`.  A
    block that crosses fewer distinct h than it has terms (a step below
    about 2**16) evaluates the two h statistics once per h, spreads them
    with `_fill_runs` and gathers R and L at l; any other block runs
    `_max_run_u64` on its progression.
    """

    def leaf(first, step, count):
        h0, h1 = first >> _WINDOW, (first + step * (count - 1)) >> _WINDOW
        if h1 - h0 >= count:
            return (_max_run_u64(_progression(first, step, count)) & _U1).astype(np.uint8)
        hs = np.arange(h0, h1 + 1, dtype=np.uint64)
        breaks = hs[1:] << np.uint64(_WINDOW)
        run_h = _fill_runs(breaks, _max_run_u64(hs).astype(np.uint8), first, step, count)
        trail_h = _fill_runs(breaks, np.bitwise_count(hs ^ (hs + _U1)) - 1, first, step, count)
        # only the low 16 bits are kept, so wrapping mod 2**32 is harmless
        low = np.arange(count, dtype=np.uint32)
        low *= np.uint32(step & _LOW)
        low += np.uint32(first & _LOW)
        low &= np.uint32(_LOW)
        runs, leading = _window_tables()
        trail_h += leading[low]
        np.maximum(run_h, runs[low], out=run_h)
        np.maximum(run_h, trail_h, out=run_h)
        return run_h & 1

    return Sequence("run-parity", ("0", "1"), leaf, _MAX_INDEX)


def seq_sqrt_parity() -> Sequence:
    """Parity of the integer square root, constant on each [j**2, (j+1)**2)."""

    def leaf(first, step, count):
        top = first + step * (count - 1)
        lo, hi = math.isqrt(first), math.isqrt(top)
        if hi - lo > count:
            # more squares than terms: only when step exceeds about 2 * sqrt(first)
            roots = np.fromiter(map(math.isqrt, range(first, top + 1, step)), np.uint64, count)
            return (roots & _U1).astype(np.uint8)
        roots = np.arange(lo, hi + 1, dtype=np.uint64)
        squares = roots[1:] * roots[1:]
        return _fill_runs(squares, (roots & _U1).astype(np.uint8), first, step, count)

    return Sequence("sqrt-parity", ("0", "1"), leaf, _MAX_INDEX)


@functools.cache
def _two_three_tables():
    """The breakpoints H_1, H_2, ... below 2**63 and the gap parities of H_0, H_1, ...

    The 1,303 3-smooth numbers below 2**63, built on first use.
    """
    entries = enumerate_smooth(_MAX_INDEX)
    # H_1, H_2, ...: the parity of H_0 = 1 holds below H_1, at 0 too
    breaks = np.array([e.value for e in entries[1:]], dtype=np.uint64)
    return breaks, np.array([e.parity for e in entries], dtype=np.uint8)


def seq_two_three() -> Sequence:
    """Sign sequence constant on the gaps of the 3-smooth enumeration.

    On [H_i, H_{i+1}) the value is (-1)**(alpha_i + beta_i), for every index
    below 2**63.  Placing 0 in the leading interval [H_0, H_1) gives it the +1
    the construction assigns to 0, so no special case is needed.
    """
    breaks, parities = _two_three_tables()

    def leaf(first, step, count):
        return _fill_runs(breaks, parities, first, step, count)

    return Sequence("two-three", ("+1", "-1"), leaf, _MAX_INDEX)
