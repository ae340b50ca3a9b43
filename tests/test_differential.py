"""Counting entry points against per-term oracles on random expression chains.

A chain is the text of a sequence expression: `shift:m` and `compress:k:a:r`
steps over a leaf.  The oracle maps each n to its leaf index by the chain's
arithmetic and reads the leaf's label from the `helpers` naive evaluators, one
Python integer at a time; the counts at each checkpoint are summed from those
labels, and the periodic fits and kernel quotients are rebuilt from them by the
`helpers` loops.  Checkpoints sit on and beside 3-smooth numbers and squares,
where two-three and sqrt-parity change value.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from asymauto import (
    INT_LIMIT,
    Checkpoints,
    CoverageError,
    Sequence,
    cluster_words,
    density_estimate,
    discrepancy_profile,
    kernel_words,
    periodic_fit_sweep,
    seqlib,
)
from asymauto.cli import build_sequence

from helpers import (
    disagreements,
    kernel_elements_by_loop,
    leading_prime_naive,
    majority_by_residue_loop,
    run_parity_naive,
    sqrt_parity_naive,
    two_three_naive,
)

# the largest prefix a schedule reaches; the oracle is pure Python
MAX_N = 1 << 11

# "1" first, so the file's alphabet lists the binary labels in the other order
FILE_LABELS = ["1", *map(str, np.random.default_rng(26).integers(0, 2, 4095).tolist())]

_TWO_THREE = two_three_naive(INT_LIMIT - 1)
LEAF_LABELS = {
    "leading-prime": lambda i: str(leading_prime_naive(i)),
    "run-parity": lambda i: str(run_parity_naive(i)),
    "sqrt-parity": lambda i: str(sqrt_parity_naive(i)),
    "two-three": lambda i: ("+1", "-1")[_TWO_THREE(i)],
    "file": FILE_LABELS.__getitem__,
}

_BREAKS = {2**a * 3**b for a in range(12) for b in range(7)} | {j * j for j in range(1, 46)}
_NEAR_BREAKS = sorted({p + d for p in _BREAKS for d in (-1, 0, 1) if 1 <= p + d <= MAX_N})

# a shift onto a breakpoint starts the leaf's block on it
_SHIFTS = st.one_of(
    st.integers(0, 10**3), st.sampled_from([p for p in _NEAR_BREAKS if p <= 10**3])
)
# a stride past 2**16: run-parity runs its word loop and sqrt-parity takes each root
LARGE_STRIDE = st.integers(17, 20).flatmap(lambda a: st.tuples(
    st.just("compress"), st.just(2), st.just(a), st.integers(0, 2**a - 1)
))
_STEP = st.one_of(
    st.tuples(st.just("shift"), _SHIFTS),
    st.integers(2, 5).flatmap(lambda k: st.integers(0, 3).flatmap(lambda a: st.tuples(
        st.just("compress"), st.just(k), st.just(a), st.integers(0, k**a - 1)
    ))),
)
# random steps, or random outer steps over a large stride
CHAINS = st.one_of(
    st.lists(_STEP, max_size=3),
    st.tuples(st.lists(_STEP, max_size=2), LARGE_STRIDE).map(lambda c: [*c[0], c[1]]),
)
_BINARY_PERIODIC = st.lists(st.integers(0, 1), min_size=1, max_size=6).filter(lambda v: 1 in v)
BINARY_LEAVES = st.one_of(
    st.sampled_from(["leading-prime", "run-parity", "sqrt-parity", "file"]),
    _BINARY_PERIODIC.map(lambda v: "periodic:" + ",".join(map(str, v))),
)
# pairs that share one label set: two binary leaves, or two-three with itself
LEAF_PAIRS = st.one_of(st.tuples(BINARY_LEAVES, BINARY_LEAVES), st.just(("two-three",) * 2))
LEAVES = st.one_of(BINARY_LEAVES, st.just("two-three"))


def schedules(cap: int):
    """Checkpoint schedules up to cap, mostly on or next to a 3-smooth number or a square."""
    near = [p for p in _NEAR_BREAKS if p <= cap]
    point = st.one_of(st.sampled_from(near), st.integers(1, cap))
    return st.lists(point, min_size=1, max_size=6, unique=True).map(
        lambda v: Checkpoints(tuple(sorted(v)))
    )


@pytest.fixture(scope="module")
def label_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("differential") / "labels.txt"
    path.write_text("\n".join(FILE_LABELS) + "\n", encoding="utf-8")
    return path


class Chain:
    """A chain's sequence, built from its text, and its per-term label oracle."""

    def __init__(self, steps, leaf, path):
        texts = [f"shift:{s[1]}:" if s[0] == "shift" else "compress:{}:{}:{}:".format(*s[1:])
                 for s in steps]
        self.seq = build_sequence("".join(texts) + (f"file:{path}" if leaf == "file" else leaf))
        self.steps = steps
        if leaf.startswith("periodic:"):
            values = leaf.partition(":")[2].split(",")
            self.leaf_label = lambda i: values[i % len(values)]
        else:
            self.leaf_label = LEAF_LABELS[leaf]
        self.cover = len(FILE_LABELS) - 1 if leaf == "file" else INT_LIMIT - 1

    def leaf_index(self, n: int) -> int:
        for step in self.steps:  # outermost first
            n = n + step[1] if step[0] == "shift" else step[1] ** step[2] * n + step[3]
        return n

    def evaluable(self) -> int:
        """How many terms from 0 on lie within the leaf's coverage."""
        base, scale = self.leaf_index(0), self.leaf_index(1) - self.leaf_index(0)
        return 0 if base > self.cover else (self.cover - base) // scale + 1

    def labels(self, n: int) -> list:
        return [self.leaf_label(self.leaf_index(i)) for i in range(n)]


def cumulative(hits: list, cps: Checkpoints) -> tuple:
    return tuple(sum(hits[:n]) for n in cps)


def drawn_schedule(data, chains) -> Checkpoints:
    """A schedule within every chain's coverage; a chain with none gets one past it."""
    cap = min(MAX_N, *(c.evaluable() for c in chains))
    return data.draw(schedules(max(cap, 1)), label="checkpoints")


@settings(max_examples=60)
@given(st.data(), CHAINS, CHAINS, LEAF_PAIRS)
def test_discrepancy_profile_matches_per_term_labels(label_file, data, steps_f, steps_g,
                                                      leaves):
    f, g = Chain(steps_f, leaves[0], label_file), Chain(steps_g, leaves[1], label_file)
    cps = drawn_schedule(data, (f, g))
    if cps.final > min(f.evaluable(), g.evaluable()):
        with pytest.raises(CoverageError):
            discrepancy_profile(f.seq, g.seq, cps)
        return
    differ = [a != b for a, b in zip(f.labels(cps.final), g.labels(cps.final))]
    assert discrepancy_profile(f.seq, g.seq, cps).counts == cumulative(differ, cps)


@settings(max_examples=60)
@given(st.data(), CHAINS, BINARY_LEAVES)
def test_density_estimate_matches_per_term_labels(label_file, data, steps, leaf):
    f = Chain(steps, leaf, label_file)
    cps = drawn_schedule(data, (f,))
    if cps.final > f.evaluable():
        with pytest.raises(CoverageError):
            density_estimate(f.seq, cps)
        return
    ones = [label == "1" for label in f.labels(cps.final)]
    assert density_estimate(f.seq, cps).counts == cumulative(ones, cps)


@settings(max_examples=60)
@given(st.data(), CHAINS, LEAVES)
def test_periodic_fit_sweep_matches_residue_loop(label_file, data, steps, leaf):
    f = Chain(steps, leaf, label_file)
    assume(f.evaluable() >= 1)
    cps = data.draw(schedules(min(MAX_N, f.evaluable())), label="checkpoints")
    top = min(32, cps.final)
    first = data.draw(st.integers(1, top), label="first period")
    periods = range(first, data.draw(st.integers(first, top), label="last period") + 1,
                    data.draw(st.integers(1, 4), label="period step"))
    values = [f.seq.alphabet.index(label) for label in f.labels(cps.final)]
    fits = periodic_fit_sweep(f.seq, periods, cps)
    assert [fit.period for fit in fits] == list(periods)
    for q, fit in zip(periods, fits):
        symbols, margins = majority_by_residue_loop(values, q)
        assert fit.symbols == tuple(symbols) and fit.margins == tuple(margins), q
        misses = [v != symbols[i % q] for i, v in enumerate(values)]
        assert fit.profile.counts == cumulative(misses, cps), q


@settings(max_examples=60)
@given(st.data(), CHAINS, LEAVES, st.sampled_from([2, 3]), st.integers(0, 2),
       st.sampled_from([0.01, 0.1, 0.25, 0.45]))
def test_kernel_quotient_matches_element_loop(label_file, data, steps, leaf, k, depth, tau):
    # element (a, r) reads f on [0, k**depth * N): the schedule stays within N <= 2**11 / k**depth
    f = Chain(steps, leaf, label_file)
    cap = min(MAX_N, f.evaluable()) // k**depth
    assume(cap >= 1)
    cps = data.draw(schedules(cap), label="checkpoints")
    n = cps.final
    elements = kernel_elements_by_loop(f.labels(k**depth * n), k, depth, n)
    order = list(elements)
    kw = kernel_words(f.seq, k, depth, cps)
    assert kw.order == order
    for m, matrix in zip(cps, kw.matrices):
        want = [[disagreements(elements[u], elements[v], m) for v in order] for u in order]
        assert matrix.tolist() == want, m
    # the greedy first-fit at tau * N in exact arithmetic, and each profile against its rep
    q = cluster_words(kw, tau)
    threshold = Fraction(str(tau)) * n
    reps = []
    for er in order:
        cid = next((c for c, rep in enumerate(reps)
                    if disagreements(elements[er], elements[rep], n) <= threshold), len(reps))
        if cid == len(reps):
            reps.append(er)
        assert q.labels[er] == cid, er
        rep = elements[reps[cid]]
        assert q.profiles[er] == tuple(disagreements(elements[er], rep, m) for m in cps), er
    assert [c.rep for c in q.classes] == reps


@settings(max_examples=40)
@given(st.data(), LARGE_STRIDE, st.sampled_from(["run-parity", "sqrt-parity"]))
def test_large_strides_take_the_per_term_engines(label_file, data, step, leaf):
    f = Chain([step], leaf, label_file)
    cps = data.draw(schedules(MAX_N), label="checkpoints")
    blocks, words, roots = [], [], []
    values, max_run = Sequence.values, seqlib._max_run_u64

    def spy_values(self, start, count):
        blocks.append(count)
        return values(self, start, count)

    def spy_max_run(x):
        words.append(len(x))
        return max_run(x)

    def spy_isqrt(n):
        roots.append(n)
        return math.isqrt(n)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Sequence, "values", spy_values)
        m.setattr(seqlib, "_max_run_u64", spy_max_run)
        m.setattr(seqlib, "math", SimpleNamespace(isqrt=spy_isqrt))
        counts = density_estimate(f.seq, cps).counts
    assert counts == cumulative([label == "1" for label in f.labels(cps.final)], cps)
    if leaf == "run-parity":
        # a block of c > 1 terms crosses more than c values of n >> 16: the word
        # loop on its c terms (a one-term block runs it on its one h)
        assert words == blocks
    else:
        # a block of c > 1 terms crosses more than c squares: the two end roots
        # and the root of each term (a one-term block takes the end roots only)
        assert len(roots) == sum(2 + (c if c > 1 else 0) for c in blocks)
