"""Bounded-depth kernel enumeration and empirical quotient clustering.

Kernel elements n -> f(k**a n + r) for a <= depth are clustered greedily in
(a, r) order: an element joins the first class whose representative disagrees
with it on at most tau * N_final points, otherwise it founds a class.  Greedy
first-fit over a fixed order keeps results reproducible even though empirical
discrepancy is only a pseudo-metric.  One `prefix_counts` scan of the symbol
indices' bit planes, packed into uint64 words, counts the pairwise matrix at each
checkpoint: each span's words are XORed where they lie, with no copy, and the edge
words of each result masked; every alphabet size takes that XOR, OR and popcount path.
The clustering reads the last matrix, and each profile is read off the matrices
at the element's class representative, with no second pass.  The matrices do
not depend on tau (`kernel_words`), so one build serves every tau (`cluster_words`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .digits import Word, expand_padded, value
from .density import Checkpoints, prefix_counts, sequence_values
from .errors import BUDGET, RangeError, check_budget
from .seqlib import Sequence, compress


def default_depth(k: int) -> int:
    """Kernel depth when none is given: 4 in base 2, else 3."""
    return 4 if k == 2 else 3


def _element_order(k: int, depth: int) -> list:
    """(a, r) of each kernel element to depth, in enumeration and clustering order."""
    return [(a, r) for a in range(depth + 1) for r in range(k**a)]


def enumerate_kernel(f: Sequence, k: int, depth: int) -> list:
    """All kernel elements of f to the given depth, in (a, then r) order."""
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    return [compress(f, k, a, r) for a, r in _element_order(k, depth)]


@dataclass(frozen=True)
class KernelClass:
    """One empirical equivalence class: representative plus members."""

    rep: tuple  # (alpha, r), lexicographically least in processing order
    members: tuple  # all (alpha, r) assigned to this class


@dataclass(frozen=True)
class KernelQuotient:
    """Empirical quotient of the depth-bounded kernel of one sequence."""

    source: str
    base: int
    depth: int
    tau: float
    checkpoints: Checkpoints
    classes: tuple  # of KernelClass
    labels: dict  # (alpha, r) -> class id, every alpha <= depth
    profiles: dict  # (alpha, r) -> counts vs class rep at each checkpoint
    matrix: np.ndarray = field(repr=False)  # pairwise counts at final checkpoint
    classes_by_depth: tuple  # class count after finishing each level

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def finiteness(self) -> str:
        """'stable' when the last depth level founded no new class."""
        if len(self.classes_by_depth) < 2:
            return "shallow"
        if self.classes_by_depth[-1] == self.classes_by_depth[-2]:
            return "stable"
        return "growing"


@dataclass(frozen=True)
class KernelWords:
    """The tau-free part of a kernel quotient: elements and their pairwise counts."""

    source: str
    base: int
    depth: int
    checkpoints: Checkpoints
    order: list  # (alpha, r) of each element
    matrices: tuple = field(repr=False)  # pairwise counts at each checkpoint


def _pack_planes(v: np.ndarray, out: np.ndarray) -> None:
    """Bit p of every symbol index into out[p], 64 positions to a word, LSB first.

    Positions past the end stay 0 in every element, so they never differ.
    """
    as_bytes = out.view(np.uint8)
    nbytes = -(-len(v) // 8)
    for p in range(len(out)):
        as_bytes[p, :nbytes] = np.packbits(v & (1 << p), bitorder="little")


def _pairwise_counts(packed: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Positions of [lo, hi) where two elements differ: popcount of the XOR of their words.

    The words covering the span are XORed where they lie in packed; the bits
    outside it are cleared in the first and last word of each XOR result.
    """
    words = packed[..., lo >> 6 : ((hi - 1) >> 6) + 1]
    first = ~np.uint64((1 << (lo & 63)) - 1)
    last = np.uint64((1 << (((hi - 1) & 63) + 1)) - 1)
    d, planes = words.shape[:2]
    matrix = np.zeros((d, d), dtype=np.int64)
    xor = np.empty_like(words[1:])
    for i in range(d - 1):
        x = np.bitwise_xor(words[i + 1 :], words[i], out=xor[i:])
        differ = x[:, 0] if planes == 1 else np.bitwise_or.reduce(x, axis=1)
        differ[:, 0] &= first
        differ[:, -1] &= last
        row = np.bitwise_count(differ).sum(axis=1, dtype=np.int64)
        matrix[i, i + 1 :] = matrix[i + 1 :, i] = row
    return matrix


def kernel_words(f: Sequence, k: int, depth: int, cps: Checkpoints) -> KernelWords:
    """Pairwise counts of every kernel element of f to depth at each checkpoint of cps.

    Elements are read and packed one at a time, so at most one value table is
    alive at once; the packed words go on return, and only the d x d matrices stay.
    """
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    # the k**depth elements of the last level alone need over k**depth bytes of packed
    # words: refuse a level over the budget before computing a power past it
    if depth >= BUDGET.bit_length() or k**depth > BUDGET:
        raise RangeError(
            f"the {k}**{depth} kernel elements at depth {depth} exceed the budget of {BUDGET} bytes"
        )
    n_final = cps.final
    d = (k ** (depth + 1) - 1) // (k - 1)
    what = f"pairwise matrix of the {d} kernel elements to depth {depth}"
    check_budget(8 * d * d, "bytes", what)
    planes = max(1, (len(f.alphabet) - 1).bit_length())
    words = -(-n_final // 64)
    check_budget(d * (d - 1) // 2 * planes * words, "word compares", what)
    check_budget(8 * d * planes * words, "bytes",
                 f"packed bit planes of the {d} kernel elements to depth {depth}")
    check_budget(8 * d * d * len(cps), "bytes",
                 f"pairwise matrices of the {d} kernel elements at {len(cps)} checkpoints")

    order = _element_order(k, depth)
    packed = np.zeros((d, planes, words), dtype="<u8")
    for i, (a, r) in enumerate(order):
        _pack_planes(sequence_values(compress(f, k, a, r), n_final), packed[i])
    matrices = prefix_counts(lambda lo, hi: _pairwise_counts(packed, lo, hi), cps)
    return KernelWords(f.name, k, depth, cps, order, matrices)


def _check_tau(tau: float) -> None:
    if not 0 < tau < 0.5:
        raise ValueError(f"tau must be in (0, 1/2), got {tau}")


def cluster_words(kw: KernelWords, tau: float) -> KernelQuotient:
    """Greedy first-fit clustering of the elements of kw at threshold tau * N_final.

    tau is read as the decimal it prints as, so a count merges exactly when it
    is at most tau * N_final in exact arithmetic.
    """
    _check_tau(tau)
    order, cps, matrix = kw.order, kw.checkpoints, kw.matrices[-1]
    exact = Fraction(str(tau))
    threshold = exact.numerator * cps.final // exact.denominator
    reps: list = []  # indices into `order`
    assignment: list = []
    for i in range(len(order)):
        for cid, ri in enumerate(reps):
            if matrix[i, ri] <= threshold:
                assignment.append(cid)
                break
        else:
            assignment.append(len(reps))
            reps.append(i)
    # reps are founded in (a, r) order, so those at depth <= a are the classes after level a
    classes_by_depth = tuple(sum(order[ri][0] <= a for ri in reps) for a in range(kw.depth + 1))

    labels = {er: cid for er, cid in zip(order, assignment)}
    members: list = [[] for _ in reps]
    for er, cid in zip(order, assignment):
        members[cid].append(er)
    classes = tuple(
        KernelClass(order[ri], tuple(ms)) for ri, ms in zip(reps, members)
    )

    profiles = {er: tuple(int(m[i, reps[cid]]) for m in kw.matrices)
                for i, (er, cid) in enumerate(zip(order, assignment))}

    return KernelQuotient(
        source=kw.source,
        base=kw.base,
        depth=kw.depth,
        tau=tau,
        checkpoints=cps,
        classes=classes,
        labels=labels,
        profiles=profiles,
        matrix=matrix,
        classes_by_depth=classes_by_depth,
    )


def cluster_kernel(
    f: Sequence,
    k: int,
    depth: int,
    cps: Checkpoints,
    tau: float,
) -> KernelQuotient:
    """Greedy first-fit clustering of the depth-bounded kernel of f."""
    _check_tau(tau)
    return cluster_words(kernel_words(f, k, depth, cps), tau)


def label_word(q: KernelQuotient, u: Word) -> int:
    """Class id of the kernel element (len(u), [u]_k): the empirical labeling."""
    if u.base != q.base:
        raise ValueError(f"word base {u.base} does not match quotient base {q.base}")
    if len(u) > q.depth:
        raise ValueError(f"word length {len(u)} exceeds quotient depth {q.depth}")
    return q.labels[(len(u), value(u))]


@dataclass(frozen=True)
class LabelViolation:
    """Words with equal labels whose digit-extensions got different labels."""

    digit: int
    left: tuple  # (alpha, r)
    right: tuple
    left_extended_label: int
    right_extended_label: int


def check_labeling_consistency(q: KernelQuotient) -> list:
    """All (digit, v, v') with label(v) = label(v') but label(av) != label(av').

    An empty list means the empirical labeling is consistent with a finite
    digit-transition table at this depth; any output is reported verbatim.
    """
    by_label: dict = {}
    for (a, r), cid in q.labels.items():
        if a < q.depth:
            by_label.setdefault(cid, []).append((a, r))
    violations = []
    for group in by_label.values():
        group.sort()
        for i in range(len(group)):
            av, rv = group[i]
            for j in range(i + 1, len(group)):
                aw, rw = group[j]
                for digit in range(q.base):
                    lv = q.labels[(av + 1, digit * q.base**av + rv)]
                    lw = q.labels[(aw + 1, digit * q.base**aw + rw)]
                    if lv != lw:
                        violations.append(
                            LabelViolation(digit, (av, rv), (aw, rw), lv, lw)
                        )
    return violations


def _word_text(k: int, a: int, r: int) -> str:
    return expand_padded(r, k, a).text(empty="")


def quotient_to_json(q: KernelQuotient, violations=None):
    """Machine export in text pieces: classes, labels keyed by padded word, audit matrix by row."""
    if violations is None:
        violations = check_labeling_consistency(q)
    obj = {
        "source": q.source,
        "base": q.base,
        "depth": q.depth,
        "tau": q.tau,
        "checkpoints": list(q.checkpoints.values),
        "classes": [
            {
                "id": cid,
                "representative": {"alpha": c.rep[0], "r": c.rep[1]},
                "members": len(c.members),
            }
            for cid, c in enumerate(q.classes)
        ],
        "classes_by_depth": list(q.classes_by_depth),
        "finiteness": q.finiteness,
        "labels": {
            _word_text(q.base, a, r): cid for (a, r), cid in sorted(q.labels.items())
        },
        "violations": [
            {
                "digit": v.digit,
                "left": _word_text(q.base, *v.left),
                "right": _word_text(q.base, *v.right),
                "left_extended_label": v.left_extended_label,
                "right_extended_label": v.right_extended_label,
            }
            for v in violations
        ],
        "pairwise_final_counts": 0,
    }
    # the pieces join to json.dumps(obj) of the whole matrix; strings escape their quotes,
    # so only the key itself matches
    head, tail = json.dumps(obj, sort_keys=True, indent=2).split('"pairwise_final_counts": 0')
    yield head + '"pairwise_final_counts": ['
    for i, row in enumerate(q.matrix):
        counts = ",\n      ".join(map(str, row.tolist()))
        yield f"{',' if i else ''}\n    [\n      {counts}\n    ]"
    yield "\n  ]" + tail + "\n"
