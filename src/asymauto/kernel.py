"""Bounded-depth kernel enumeration and empirical quotient clustering.

Kernel elements n -> f(k**a n + r) for a <= depth are clustered greedily in
(a, r) order: an element joins the first class whose representative disagrees
with it on at most tau * N_final points, otherwise it founds a class.  Greedy
first-fit over a fixed order keeps results reproducible even though empirical
discrepancy is only a pseudo-metric.  The full pairwise count matrix, which
the clustering reads, is kept alongside for audit; it is computed on the bit
planes of the symbol indices packed into uint64 words, so every alphabet size
takes the same XOR, OR and popcount path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .digits import Word, expand_padded, value
from .density import Checkpoints, prefix_counts, sequence_values
from .errors import RangeError
from .seqlib import Sequence, compress


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


# bytes of f materialised (k**depth * N), mirroring union_density's bit_budget
_BYTE_BUDGET = 1 << 31
# uint64 words one XOR step of the pairwise matrix holds (16 MiB)
_XOR_WORDS = 1 << 21


def _pack_planes(arrays: list, n_sym: int) -> np.ndarray:
    """Bit p of every symbol index, 64 positions to a word: (elements, planes, words).

    Positions past the end stay 0 in every element, so they never differ.
    """
    planes = max(1, (n_sym - 1).bit_length())
    n = len(arrays[0])
    packed = np.zeros((len(arrays), planes, -(-n // 64)), dtype="<u8")
    as_bytes = packed.view(np.uint8)
    for i, v in enumerate(arrays):
        for p in range(planes):
            as_bytes[i, p, : -(-n // 8)] = np.packbits(v & (1 << p), bitorder="little")
    return packed


def _differ(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Words whose set bits are the positions where x and y differ: XOR, OR over planes."""
    return np.bitwise_or.reduce(x ^ y, axis=-2)


def _pairwise_counts(packed: np.ndarray) -> np.ndarray:
    """Positions where two elements differ, by popcount of the differ words."""
    d = len(packed)
    matrix = np.zeros((d, d), dtype=np.int64)
    block = max(1, _XOR_WORDS // packed[0].size)  # rows XORed at once
    for i in range(d - 1):
        for lo in range(i + 1, d, block):
            hi = min(lo + block, d)
            counts = np.bitwise_count(_differ(packed[lo:hi], packed[i])).sum(axis=1, dtype=np.int64)
            matrix[i, lo:hi] = counts
            matrix[lo:hi, i] = counts
    return matrix


def cluster_kernel(
    f: Sequence,
    k: int,
    depth: int,
    cps: Checkpoints,
    tau: float,
) -> KernelQuotient:
    """Greedy first-fit clustering of the depth-bounded kernel of f."""
    if not 0 < tau < 0.5:
        raise ValueError(f"tau must be in (0, 1/2), got {tau}")
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    n_final = cps.final
    factor = k**depth
    if factor * n_final > _BYTE_BUDGET:
        raise RangeError(
            f"k**depth * N = {factor * n_final} bytes for k={k}, depth={depth}, "
            f"N={n_final} exceed the kernel budget of {_BYTE_BUDGET} bytes"
        )

    # one pass over f; every element is a strided view of it, packed
    big = sequence_values(f, factor * n_final)
    order = _element_order(k, depth)
    packed = _pack_planes([big[r :: k**a][:n_final] for a, r in order], len(f.alphabet))
    del big
    matrix = _pairwise_counts(packed)

    threshold = tau * n_final
    reps: list = []  # indices into `order`/`packed`
    assignment: list = []
    classes_by_depth = []
    level = 0
    for i, (a, r) in enumerate(order):
        while a > level:
            classes_by_depth.append(len(reps))
            level += 1
        for cid, ri in enumerate(reps):
            if matrix[i, ri] <= threshold:
                assignment.append(cid)
                break
        else:
            assignment.append(len(reps))
            reps.append(i)
    classes_by_depth.append(len(reps))

    labels = {er: cid for er, cid in zip(order, assignment)}
    members: list = [[] for _ in reps]
    for er, cid in zip(order, assignment):
        members[cid].append(er)
    classes = tuple(
        KernelClass(order[ri], tuple(ms)) for ri, ms in zip(reps, members)
    )

    profiles = {}
    for i, er in enumerate(order):
        differ = _differ(packed[i], packed[reps[assignment[i]]])
        mism = np.unpackbits(differ.view(np.uint8), count=n_final, bitorder="little")
        profiles[er] = prefix_counts(mism, cps)

    return KernelQuotient(
        source=f.name,
        base=k,
        depth=depth,
        tau=tau,
        checkpoints=cps,
        classes=classes,
        labels=labels,
        profiles=profiles,
        matrix=matrix,
        classes_by_depth=tuple(classes_by_depth),
    )


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


def quotient_to_json(q: KernelQuotient, violations=None) -> str:
    """Machine export: classes, labels keyed by padded word, audit matrix."""
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
        "pairwise_final_counts": q.matrix.tolist(),
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
