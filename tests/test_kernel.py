import dataclasses
import json
import os
import subprocess
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import asymauto.density as density_mod
import asymauto.kernel as kernel_mod
from asymauto import (
    Checkpoints,
    KernelWords,
    RangeError,
    Word,
    check_labeling_consistency,
    cluster_kernel,
    cluster_words,
    enumerate_kernel,
    kernel_words,
    label_word,
    quotient_to_json,
    seq_leading_prime,
    seq_run_parity,
    seq_sqrt_parity,
    seq_two_three,
    sequence_from_file,
)
from asymauto.cli import main

from helpers import disagreements, kernel_elements_by_loop, peak_rss_bytes, python_with_peak_rss

CPS18 = Checkpoints.geometric(1 << 10, 1 << 18)


def test_enumerate_kernel_counts():
    f = seq_run_parity()
    assert len(enumerate_kernel(f, 2, 0)) == 1
    assert len(enumerate_kernel(f, 2, 2)) == 7
    assert len(enumerate_kernel(f, 3, 3)) == 40
    el = enumerate_kernel(f, 2, 2)[4]
    assert el.name == "compress:2:2:1:run-parity"
    assert (el.scale, el.offset) == (4, 1)
    assert el(5) == f(4 * 5 + 1)
    assert el.values(0, 1 << 10).tolist() == f.values(0, 4 << 10)[1::4].tolist()


def test_leading_prime_single_class_small():
    q = cluster_kernel(seq_leading_prime(), 2, 3, CPS18, 1e-2)
    assert q.class_count == 1
    assert q.classes_by_depth == (1, 1, 1, 1)
    assert q.finiteness == "stable"
    assert len(q.classes[0].members) == 15


def test_cluster_determinism():
    a = cluster_kernel(seq_sqrt_parity(), 2, 2, CPS18, 1e-2)
    b = cluster_kernel(seq_sqrt_parity(), 2, 2, CPS18, 1e-2)
    assert a.labels == b.labels
    assert a.classes == b.classes
    assert (a.matrix == b.matrix).all()


def test_tau_monotonicity():
    # a stricter threshold can only split classes, never merge them
    for seq in (seq_two_three(), seq_sqrt_parity()):
        counts = [
            cluster_kernel(seq, 2, 3, CPS18, tau).class_count
            for tau in (1e-3, 1e-2, 1e-1, 0.25)
        ]
        assert counts == sorted(counts, reverse=True)


def two_elements(count: int, n: int) -> KernelWords:
    """Kernel words of two elements that differ in `count` of n positions."""
    matrix = np.array([[0, count], [count, 0]], dtype=np.int64)
    return KernelWords("f", 2, 1, Checkpoints((n,)), [(0, 0), (1, 0)], (matrix,))


@pytest.mark.parametrize("tau, n, count", [(0.29, 100, 29), (0.043, 10**4, 430)])
def test_cluster_merges_a_count_of_exactly_tau_n(tau, n, count):
    # 0.29 * 100 is 28.999999999999996 in floats
    assert cluster_words(two_elements(count, n), tau).class_count == 1
    assert cluster_words(two_elements(count + 1, n), tau).class_count == 2


def test_cluster_threshold_is_the_exact_floor_of_tau_n():
    for n in (100, 1000, 3 * 2**10, 10**4, 2**20 + 1, 3 * 2**22):
        for i in range(1, 500):
            tau = i / 1000
            floor = Fraction(repr(tau)) * n // 1
            assert cluster_words(two_elements(floor, n), tau).class_count == 1, (tau, n)
            assert cluster_words(two_elements(floor + 1, n), tau).class_count == 2, (tau, n)


def test_two_three_labels_at_derived_tau():
    # tau=0.25 resolves the two sign classes at this scale (see repo notes)
    q = cluster_kernel(seq_two_three(), 2, 3, CPS18, 0.25)
    assert q.class_count == 2
    eps = Word(2, ())
    zero = Word(2, (0,))
    zerozero = Word(2, (0, 0))
    assert label_word(q, eps) == 0
    assert label_word(q, zero) != label_word(q, eps)
    assert label_word(q, zerozero) == label_word(q, eps)
    assert check_labeling_consistency(q) == []


def test_two_three_base3_depth_coherence():
    q = cluster_kernel(seq_two_three(), 3, 2, CPS18, 0.25)
    assert q.class_count == 2
    assert q.finiteness == "stable"


def test_representatives_are_minimal_and_labeled_consistently():
    q = cluster_kernel(seq_sqrt_parity(), 2, 2, CPS18, 1e-2)
    order = [(a, r) for a in range(3) for r in range(2**a)]
    assert set(q.labels) == set(order)
    for cid, cls in enumerate(q.classes):
        assert cls.rep == min(cls.members, key=order.index)
        assert q.labels[cls.rep] == cid
    # profiles exist for every element and are non-decreasing
    for er, counts in q.profiles.items():
        assert list(counts) == sorted(counts)
    assert q.matrix.shape == (7, 7)
    assert (q.matrix.diagonal() == 0).all()


def test_label_word_validation():
    q = cluster_kernel(seq_sqrt_parity(), 2, 1, CPS18, 1e-2)
    with pytest.raises(ValueError):
        label_word(q, Word(3, (1,)))
    with pytest.raises(ValueError):
        label_word(q, Word(2, (1, 0)))


def test_overflow_rejected():
    with pytest.raises(RangeError):
        cluster_kernel(seq_run_parity(), 2, 62, CPS18, 1e-2)


def test_quotient_json_roundtrip():
    q = cluster_kernel(seq_two_three(), 2, 2, CPS18, 0.25)
    obj = json.loads("".join(quotient_to_json(q)))
    assert obj["base"] == 2
    assert obj["depth"] == 2
    assert obj["tau"] == 0.25
    assert obj["labels"][""] == 0
    assert obj["labels"]["0"] == 1
    assert obj["labels"]["00"] == 0
    assert len(obj["labels"]) == 7
    assert obj["violations"] == []
    assert len(obj["pairwise_final_counts"]) == 7
    assert obj["classes"][0]["representative"] == {"alpha": 0, "r": 0}


def test_labeling_violations_match_a_naive_recount():
    # sqrt-parity has no finite digit-transition table: at this scale the
    # labelling breaks the digit extension in 3 places
    q = cluster_kernel(seq_sqrt_parity(), 2, 3, Checkpoints.geometric(1 << 8, 1 << 14), 0.01)
    violations = check_labeling_consistency(q)
    inner = sorted(e for e in q.labels if e[0] < q.depth)
    recount = []
    for i, v in enumerate(inner):
        for w in inner[i + 1:]:
            if q.labels[v] != q.labels[w]:
                continue
            for digit in range(q.base):
                ev = q.labels[(v[0] + 1, digit * q.base ** v[0] + v[1])]
                ew = q.labels[(w[0] + 1, digit * q.base ** w[0] + w[1])]
                if ev != ew:
                    recount.append((digit, v, w, ev, ew))
    got = [(x.digit, x.left, x.right, x.left_extended_label, x.right_extended_label)
           for x in violations]
    assert len(got) == 3
    assert sorted(got) == sorted(recount)

    def padded(a, r):  # r's base-2 digits, most significant first, a of them
        return "".join(str(r >> i & 1) for i in reversed(range(a)))

    obj = json.loads("".join(quotient_to_json(q, violations)))
    assert obj["violations"] == [
        {"digit": d, "left": padded(*v), "right": padded(*w),
         "left_extended_label": ev, "right_extended_label": ew}
        for d, v, w, ev, ew in got
    ]


@pytest.mark.parametrize("depth", [0, 2, 4])
def test_quotient_json_is_written_row_by_row(depth):
    # d = 1, 7 and 31 elements: the pieces join to json.dumps(sort_keys=True, indent=2)
    q = cluster_kernel(seq_two_three(), 2, depth, CPS18, 0.25)
    pieces = list(quotient_to_json(q))
    text = "".join(pieces)
    obj = json.loads(text)
    assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert obj["pairwise_final_counts"] == q.matrix.tolist()
    assert len(pieces) == len(q.matrix) + 2


def test_kernel_json_memory_stays_near_the_matrix(tmp_path):
    # d = 1023 at N = 1024: an 8 MiB matrix, which as one Python list of lists for
    # json.dumps took about 100 MiB more than the same command without --json
    env = dict(os.environ, PYTHONPATH=str(Path(kernel_mod.__file__).parents[1]))

    def peak(*extra):
        argv = python_with_peak_rss("-m", "asymauto.cli", "kernel", "--seq", "two-three",
                                    "--base", "2", "--depth", "9", "--nmax", "1024", *extra)
        run = subprocess.run(argv, capture_output=True, env=env, check=True)
        return peak_rss_bytes(run.stderr)

    path = tmp_path / "q.json"
    with_json, plain = peak("--json", str(path)), peak()
    assert len(json.loads(path.read_text(encoding="utf-8").split("\n", 1)[1])["labels"]) == 1023
    assert with_json < 1.25 * plain, (with_json, plain)


@pytest.mark.parametrize("n_sym", [1, 2, 3, 5, 256])
@pytest.mark.parametrize("k,depth,cps", [
    # N = 1237 is not a multiple of 64
    pytest.param(2, 3, Checkpoints((100, 640, 1237)), id="2-3"),
    pytest.param(3, 2, Checkpoints((100, 640, 1237)), id="3-2"),
    # the spans start mid-word (1000) and on a word (65536) and end mid-word
    # (70001), so both edge masks of the XOR results are exercised
    pytest.param(2, 2, Checkpoints((1000, 65536, 70001)), id="2-2-span-edges"),
])
def test_packed_matrix_and_profiles_match_direct_counts(tmp_path, n_sym, k, depth, cps):
    # 1 to 8 bit planes; two noisy alternating patterns make classes with
    # nonzero profiles
    n = cps.final
    rng = np.random.default_rng(n_sym * 10 + k)
    size = k**depth * n
    pattern = np.array([0, n_sym - 1])[np.arange(size) % 2]
    noise = rng.random(size) < 0.05
    values = np.where(noise, rng.integers(0, n_sym, size), pattern)
    values[-n_sym:] = np.arange(n_sym)  # every symbol occurs
    values = values.tolist()
    path = tmp_path / "seq.txt"
    path.write_text("".join(f"s{v}\n" for v in values), encoding="utf-8")
    f = sequence_from_file(path)
    assert len(f.alphabet) == n_sym
    q = cluster_kernel(f, k, depth, cps, 0.2)
    matrices = kernel_words(f, k, depth, cps).matrices

    elements = kernel_elements_by_loop(values, k, depth, n)
    order = list(elements)
    assert q.matrix.dtype == np.int64
    assert len(matrices) == len(cps) and np.array_equal(matrices[-1], q.matrix)
    for i, u in enumerate(order):
        for j, v in enumerate(order):
            for m, matrix in zip(cps, matrices):
                assert matrix[i, j] == disagreements(elements[u], elements[v], m), (u, v, m)
    # the greedy first-fit over the direct counts, and each profile against its rep
    reps = []
    for i, er in enumerate(order):
        cid = next((c for c, ri in enumerate(reps)
                    if disagreements(elements[er], elements[order[ri]], n) <= 0.2 * n), None)
        if cid is None:
            cid = len(reps)
            reps.append(i)
        assert q.labels[er] == cid
        rep = elements[order[reps[cid]]]
        assert q.profiles[er] == tuple(disagreements(elements[er], rep, m) for m in cps)
    assert (q.class_count == 1) is (n_sym == 1)
    assert any(counts[-1] for counts in q.profiles.values()) is (n_sym > 1)


@pytest.mark.parametrize("n_sym", [2, 5])
def test_matrices_match_numpy_counts_across_a_mid_word_chunk(tmp_path, n_sym):
    # the span [1000, 300001) is scanned in two chunks, split at 1000 + 2**18 = 263144,
    # 40 bits into a word: both chunks mask that word, each keeping its own bits
    cps = Checkpoints((1000, 300001))
    assert (1000 + density_mod._SCAN_CHUNK) % 64 == 40
    k, depth, n = 2, 2, cps.final
    values = np.random.default_rng(n_sym).integers(0, n_sym, k**depth * n)
    values[-n_sym:] = np.arange(n_sym)  # every symbol occurs
    path = tmp_path / "seq.txt"
    path.write_text("".join(f"s{v}\n" for v in values.tolist()), encoding="utf-8")
    f = sequence_from_file(path)
    assert len(f.alphabet) == n_sym
    matrices = kernel_words(f, k, depth, cps).matrices

    # element (a, r) is n -> f(k**a n + r): every k**a-th value from r
    order = [(a, r) for a in range(depth + 1) for r in range(k**a)]
    tables = [values[r :: k**a][:n] for a, r in order]
    for m, matrix in zip(cps, matrices):
        want = [[np.count_nonzero(u[:m] != v[:m]) for v in tables] for u in tables]
        assert matrix.tolist() == want, m


def test_kernel_budget_checked_before_allocating(monkeypatch):
    # 797161 elements to base 3, depth 12 need a 5 * 10**12-byte matrix: refused, not attempted
    with pytest.raises(RangeError, match="797161 kernel elements.*budget"):
        cluster_kernel(seq_two_three(), 3, 12, Checkpoints.geometric(1 << 10, 1 << 20), 0.25)
    # a 512 MiB matrix, but 8191 * 8190 / 2 pairs of 2**14 words: the compare work is refused
    with pytest.raises(RangeError, match="8191 kernel elements.*word compares exceed the budget"):
        cluster_kernel(seq_two_three(), 2, 12, Checkpoints.geometric(1 << 10, 1 << 20), 0.25)

    # 3 elements and 3 * 2**27 word compares, but 3 * 2**30 bytes of packed words:
    # the packed words are refused before any element is read
    def refuse(*args):
        raise AssertionError("evaluated before the budget check")

    monkeypatch.setattr(kernel_mod, "sequence_values", refuse)
    with pytest.raises(RangeError, match="packed bit planes of the 3 kernel elements.*budget"):
        cluster_kernel(seq_two_three(), 2, 1, Checkpoints((1 << 33,)), 0.25)


def test_kernel_compare_work_checked_before_evaluating(monkeypatch):
    # base 2 to depth 9 at 2**20: 1023 * 1022 / 2 pairs of 2**14 words, 4 * 2**31 compares
    def refuse(*args):
        raise AssertionError("evaluated before the budget check")

    monkeypatch.setattr(kernel_mod, "sequence_values", refuse)
    with pytest.raises(RangeError, match="1023 kernel elements.*word compares exceed the budget"):
        cluster_kernel(seq_two_three(), 2, 9, Checkpoints.geometric(1 << 10, 1 << 20), 0.25)
    # depth 8 is inside it: 511 * 510 / 2 * 2**14 is 0.99 * 2**31
    with pytest.raises(AssertionError, match="evaluated"):
        cluster_kernel(seq_two_three(), 2, 8, Checkpoints.geometric(1 << 10, 1 << 20), 0.25)


def test_kernel_matrix_checked_before_allocating(monkeypatch):
    # 2**15 - 1 elements need an 8 GiB int64 matrix, though their table is 1 MiB
    def refuse(*args):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(kernel_mod, "sequence_values", refuse)
    monkeypatch.setattr(kernel_mod, "_element_order", refuse)
    with pytest.raises(RangeError, match="pairwise matrix of the 32767 kernel elements.*budget"):
        cluster_kernel(seq_two_three(), 2, 14, Checkpoints((64,)), 0.25)


def test_kernel_checkpoint_matrices_checked_before_evaluating(monkeypatch, capsys):
    # 14425 elements in base 24 to depth 3 pass the other checks at N = 1030, but
    # their matrices at the 2 checkpoints 1024 and 1030 take 3.3 GB
    def refuse(*args):
        raise AssertionError("evaluated before the budget check")

    monkeypatch.setattr(kernel_mod, "sequence_values", refuse)
    argv = ["kernel", "--seq", "run-parity", "--base", "24", "--depth", "3", "--nmax", "1030"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("range error: pairwise matrices of the 14425 kernel elements at "
                          "2 checkpoints: 3329290000 bytes exceed the budget")


def test_kernel_words_hold_no_table_sized_by_n():
    # the packed planes cover all N positions; only the d x d matrices outlive the scan
    cps = Checkpoints((1000, 65536, 70001))
    kw = kernel_words(seq_sqrt_parity(), 2, 2, cps)
    held = [getattr(kw, fl.name) for fl in dataclasses.fields(kw)]
    arrays = [a for v in held for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert len(arrays) == len(cps) and all(a.shape == (7, 7) for a in arrays)
