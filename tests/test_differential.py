"""Counting entry points against per-term oracles on random expression chains.

A chain is the text of a sequence expression: `shift:m` and `compress:k:a:r`
steps over a leaf.  The oracle maps each n to its leaf index by the chain's
arithmetic and reads the leaf's label from the `helpers` naive evaluators, one
Python integer at a time; the counts at each checkpoint are summed from those
labels.  Checkpoints sit on and beside 3-smooth numbers and squares, where
two-three and sqrt-parity change value.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymauto import (
    INT_LIMIT,
    Checkpoints,
    CoverageError,
    density_estimate,
    discrepancy_profile,
)
from asymauto.cli import build_sequence

from helpers import (
    leading_prime_naive,
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
_STEP = st.one_of(
    st.tuples(st.just("shift"), _SHIFTS),
    st.integers(2, 5).flatmap(lambda k: st.integers(0, 3).flatmap(lambda a: st.tuples(
        st.just("compress"), st.just(k), st.just(a), st.integers(0, k**a - 1)
    ))),
)
CHAINS = st.lists(_STEP, max_size=3)
_BINARY_PERIODIC = st.lists(st.integers(0, 1), min_size=1, max_size=6).filter(lambda v: 1 in v)
BINARY_LEAVES = st.one_of(
    st.sampled_from(["leading-prime", "run-parity", "sqrt-parity", "file"]),
    _BINARY_PERIODIC.map(lambda v: "periodic:" + ",".join(map(str, v))),
)
# pairs that share one label set: two binary leaves, or two-three with itself
LEAF_PAIRS = st.one_of(st.tuples(BINARY_LEAVES, BINARY_LEAVES), st.just(("two-three",) * 2))


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
