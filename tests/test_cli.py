import io
import json
import math
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import asymauto
from asymauto import acceptance, cli, cobham, density, errors, kernel, seqlib, smooth
from asymauto.acceptance import VERIFY_COMMANDS, write_verify_outputs
from asymauto.cli import build_sequence, main, parse_expr
from asymauto.errors import ExprError, RangeError
from asymauto.seqlib import Sequence
from helpers import parse_expr_by_cursor, peak_rss_bytes, python_with_peak_rss


def test_parse_examples():
    assert parse_expr("two-three") == (("two-three",),)
    assert parse_expr("shift:1:two-three") == (("shift", 1), ("two-three",))
    assert parse_expr("compress:2:1:0:run-parity") == (("compress", 2, 1, 0), ("run-parity",))
    assert parse_expr("periodic:0,1,1") == (("periodic", (0, 1, 1)),)
    assert parse_expr("shift:2:compress:3:1:2:sqrt-parity") == (
        ("shift", 2), ("compress", 3, 1, 2), ("sqrt-parity",))
    assert parse_expr("shift:0:file:a:b.txt") == (("shift", 0), ("file", "a:b.txt"))


# (expression, message, byte offset)
PARSE_ERRORS = [
    ("", "empty expression", 0),
    ("bogus", "unknown constructor 'bogus'", 0),
    ("shift:1: two-three", "whitespace is not allowed in expressions", 8),
    ("two-three:junk", "trailing characters after expression", 9),
    ("compress:2:70:0:two-three:junk", "trailing characters after expression", 25),
    ("shift:x:two-three", "expected nonnegative integer for shift amount, got 'x'", 6),
    ("shift:1", "expected ':' and another argument", 7),
    ("shift:1:", "unknown constructor ''", 8),
    ("compress:1:x:0:two-three", "base must be >= 2, got 1", 9),
    ("compress:2:1:2:run-parity", "residue 2 >= 2**1", 13),
    ("periodic:", "periodic needs a comma-separated value list", 9),
    ("periodic:1,,2", "bad periodic value ''", 11),
    ("periodic:0,a", "bad periodic value 'a'", 11),
    ("file:", "file needs a path", 5),
]


def test_parse_error_offsets():
    for text, message, offset in PARSE_ERRORS:
        with pytest.raises(ExprError) as e:
            parse_expr(text)
        assert str(e.value) == f"{message} (at offset {offset})", text
        assert e.value.offset == offset, text


_NAMES = ["shift", "compress", "periodic", "file", "leading-prime", "run-parity",
          "sqrt-parity", "two-three", "bogus", ""]
_INTS = ["0", "1", "2", "3", "07", "12345678901234567890", "\u0661"]  # U+0661: Arabic-Indic one
_LISTS = ["0,1", "1,,2", ",", "0,", ",1", " ", "0, 1", "\u00e9", "1,\u00e9", "2,\u0661"]
_TOKEN = st.sampled_from(_NAMES + _INTS + _LISTS)
# pieces beside single tokens: a step with integer arguments, so a chain gets into the
# checks of its steps and its leaf, and a leaf that takes the rest, with or without one
_REST_LEAF = st.sampled_from(["periodic", "file"])
_PIECES = st.one_of(
    _TOKEN.map(lambda t: (t,)),
    st.tuples(st.just("shift"), st.sampled_from(_INTS)),
    st.tuples(st.just("compress"), *[st.sampled_from(_INTS)] * 3),
    st.tuples(_REST_LEAF),
    st.tuples(_REST_LEAF, st.sampled_from(["", *_LISTS])),
)
# pieces joined by ':', perhaps with a trailing ':' or ','
_CHAINS = st.builds(
    lambda pieces, tail: ":".join(t for p in pieces for t in p) + tail,
    st.lists(_PIECES, max_size=5),
    st.sampled_from(["", ":", ","]),
)


def _parse_outcome(parse, text):
    """parse's steps for text, or the (message, offset) of its ExprError."""
    try:
        return parse(text)
    except ExprError as exc:
        return str(exc), exc.offset


@settings(max_examples=300)
@given(_CHAINS)
def test_parse_matches_the_cursor_parser(text):
    assert _parse_outcome(parse_expr, text) == _parse_outcome(parse_expr_by_cursor, text)


def _digits(low: int, high: int):
    return st.integers(low, high).map(str)  # canonical: no leading zeros


_STEPS = st.one_of(
    st.builds("shift:{}:".format, _digits(1, 10**6)),
    st.integers(2, 20).flatmap(lambda k: st.integers(0, 8).flatmap(
        lambda a: st.builds(f"compress:{k}:{a}:{{}}:".format, _digits(0, k**a - 1)))),
)
_LEAVES = st.one_of(
    st.sampled_from(["leading-prime", "run-parity", "sqrt-parity", "two-three", "file:"]),
    st.lists(_digits(0, 255), min_size=1, max_size=6).map(lambda v: "periodic:" + ",".join(v)),
)


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("chain") / "chain.txt"
    path.write_text("a\nb\n", encoding="utf-8")
    return path


@given(st.lists(_STEPS, max_size=6), _LEAVES)
def test_canonical_expression_is_its_name(chain_file, steps, leaf):
    if leaf == "file:":
        leaf += str(chain_file)
    text = "".join(steps) + leaf
    assert build_sequence(text).name == text


def test_build_sequence_file(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text("a\nb\na\n", encoding="utf-8")
    f = build_sequence(f"file:{path}")
    assert [f.label(n) for n in range(3)] == ["a", "b", "a"]


def test_eval_stdout(capsys):
    assert main(["eval", "--seq", "two-three", "--range", "0:12"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "+1,+1,-1,-1,+1,+1,+1,+1,-1,+1,+1,+1"


def test_eval_periodic_and_shift(capsys):
    assert main(["eval", "--seq", "shift:1:periodic:0,1,1", "--range", "0:6"]) == 0
    assert capsys.readouterr().out.strip() == "1,1,0,1,1,0"


def test_smooth_csv_stdout(capsys):
    assert main(["smooth", "--limit", "12", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    data = [ln for ln in lines if ln and not ln.startswith("#") and "," in ln]
    assert data[0] == "index,H,alpha,beta,ratio_to_next"
    assert len(data) == 9  # header + 8 rows
    assert data[-1].startswith("7,12,2,1")


def test_exit_codes(tmp_path):
    assert main(["eval", "--seq", "nope", "--range", "0:4"]) == 2
    assert main(["eval", "--seq", "two-three", "--range", "bad"]) == 2
    assert main(["union-density", "--k", "4", "--m", "2", "--gamma", "6", "--nu", "6"]) == 2
    assert main(["union-density", "--k", "4", "--m", "1", "--gamma", "6", "--nu", "40"]) == 3
    # coverage overrun surfaces as a range failure
    path = tmp_path / "four.txt"
    path.write_text("a\nb\na\nb\n", encoding="utf-8")
    assert main(["eval", "--seq", f"compress:2:1:0:file:{path}", "--range", "0:4"]) == 3
    # options that no longer exist are usage errors
    assert main(["eval", "--seq", "two-three", "--range", "0:4", "--smooth-limit", "5000"]) == 2
    assert main(["kernel", "--seq", "two-three", "--base", "2", "--rho", "1.2"]) == 2
    assert main(["--help"]) == 0
    assert main(["smooth", "--help"]) == 0
    assert main([]) == 2


def spy_on_values(monkeypatch) -> list:
    """Patch Sequence.values to record the count of every call."""
    counts, real = [], Sequence.values

    def spy(self, start, count):
        counts.append(count)
        return real(self, start, count)

    monkeypatch.setattr(Sequence, "values", spy)
    return counts


class WriteRecorder(io.StringIO):
    """A text stream that keeps every write apart."""

    def __init__(self, writes: list):
        super().__init__()
        self.writes = writes

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_eval_fills_in_scan_chunks(capsys, monkeypatch, tmp_path):
    argv = ["eval", "--seq", "compress:3:1:2:sqrt-parity", "--range", "1000:6000"]
    assert main(argv + ["--csv", str(tmp_path / "whole.csv")]) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(density, "_SCAN_CHUNK", 997)
    counts = spy_on_values(monkeypatch)
    assert main(argv + ["--csv", str(tmp_path / "chunked.csv")]) == 0
    assert max(counts) <= 997 and sum(counts) >= 5000
    assert capsys.readouterr().out == whole
    assert whole == ",".join(str(math.isqrt(3 * n + 2) & 1) for n in range(1000, 6000)) + "\n"
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    # the labels and the CSV rows (here to stdout too) are written block by block
    writes = []
    monkeypatch.setattr(sys, "stdout", WriteRecorder(writes))
    assert main(argv + ["--csv", "-"]) == 0
    assert "".join(writes) == whole + (tmp_path / "whole.csv").read_text(encoding="utf-8")
    head = next(i for i, w in enumerate(writes) if w.startswith("# asymauto eval"))
    assert max(len(w.strip(",\n").split(",")) for w in writes[:head]) <= 997
    assert max(w.count("\n") for w in writes[head + 1 :]) <= 997


def _eval_in_child(count: int) -> tuple:
    """`eval --seq sqrt-parity --range 0:count` in a child under a 2 GB address-space limit.

    Returns (exit code, stdout bytes, first stdout block, peak RSS in bytes) of that child
    alone, read by `python_with_peak_rss`, not the pooled RUSAGE_CHILDREN.
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))

    env = dict(os.environ, PYTHONPATH=str(Path(asymauto.__file__).parents[1]))
    argv = python_with_peak_rss("-m", "asymauto.cli", "eval", "--seq", "sqrt-parity",
                                "--range", f"0:{count}")
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                             preexec_fn=limit)
    head = child.stdout.read(1 << 16)
    size = len(head)
    while block := child.stdout.read(1 << 20):
        size += len(block)
    err = child.stderr.read()
    return child.wait(), size, head, peak_rss_bytes(err)


def test_eval_memory_stays_near_one_block():
    # 2 * 10**7 values: a whole-range table plus its text would be 2 * 10**7 + 4 * 10**7 bytes
    n = 20_000_000
    code, size, head, peak = _eval_in_child(n)
    assert code == 0
    assert size == 2 * n  # one label and one comma or newline per value
    assert head.startswith(b"0,1,1,1,0,0,0,0,0,1,1,1,1,1,1,1,0,")
    # the same command on 2000 values: the interpreter, numpy and the package
    small_code, _, _, base = _eval_in_child(2000)
    assert small_code == 0
    assert peak - base < (n + 2 * n) // 4, (peak, base)


def test_smooth_csv_is_written_row_by_row(tmp_path):
    # 2 * 10**5 entries: the table is held either way; its 39 MB of CSV, joined into one
    # string from a list of every row, took 120 MiB more than the table, and is now
    # written one row at a time
    env = dict(os.environ, PYTHONPATH=str(Path(asymauto.__file__).parents[1]))

    def peak(*extra):
        argv = python_with_peak_rss("-m", "asymauto.cli", "smooth", "--first", "200000", *extra)
        run = subprocess.run(argv, capture_output=True, env=env, check=True)
        return peak_rss_bytes(run.stderr)

    path = tmp_path / "table.csv"
    with_csv, plain = peak("--csv", str(path)), peak()
    assert path.read_text(encoding="utf-8").count("\n") == 200_002  # '#' line and header
    assert with_csv < 1.1 * plain, (with_csv, plain)


def test_eval_past_coverage_fails_before_filling(capsys, monkeypatch, tmp_path):
    # the error names the last index of the range, as one call on it would
    path = tmp_path / "labels.txt"
    path.write_text("a\nb\n" * 2500 + "a\n", encoding="utf-8")  # indices 0..5000
    monkeypatch.setattr(density, "_SCAN_CHUNK", 997)
    counts = spy_on_values(monkeypatch)
    argv = ["eval", "--seq", f"file:{path}", "--range", "0:6000"]
    assert main(argv) == 3
    assert counts == [1]
    err = capsys.readouterr().err
    assert "index 5999 reaches leaf index 5999, beyond coverage [0, 5000]" in err


def test_discrepancy_past_coverage_fails_before_scanning(capsys, monkeypatch, tmp_path):
    # each side's last term is read once before the scan: the file, as g, fails on
    # the second read, naming N - 1
    path = tmp_path / "labels.txt"
    path.write_text("0\n1\n" * 2500 + "0\n", encoding="utf-8")  # indices 0..5000
    monkeypatch.setattr(density, "_SCAN_CHUNK", 997)
    counts = spy_on_values(monkeypatch)
    argv = ["discrepancy", "--f", "sqrt-parity", "--g", f"file:{path}", "--nmax", "6000"]
    assert main(argv) == 3
    assert counts == [1, 1]
    err = capsys.readouterr().err
    assert "index 5999 reaches leaf index 5999, beyond coverage [0, 5000]" in err
    assert err.count("\n") == 1


@pytest.fixture(scope="module")
def short_table(tmp_path_factory):
    """A 300,000-line label file: indices 0..299999, well short of 2**20."""
    path = tmp_path_factory.mktemp("short") / "labels.txt"
    path.write_text("0\n1\n" * 150_000, encoding="utf-8")
    return path


@pytest.mark.parametrize("argv, leaf_index", [
    # the deepest element (2, 3) reads leaf index 4 * 2**20 - 1, and (4, 15) in base 2
    # at the default depth 4 reads 16 * 2**20 - 1: refused before any element is packed
    (["kernel", "--base", "2", "--depth", "2", "--nmax", "1048576"], 4 * 2**20 - 1),
    (["report", "--k", "2", "--l", "3", "--nmax", "1048576"], 16 * 2**20 - 1),
    # the table read by the fits refuses at its last term, before any residue is counted
    (["periodic-fit", "--qmax", "4", "--n", "1048576"], 2**20 - 1),
])
def test_table_reads_past_coverage_fail_before_they_start(capsys, monkeypatch, short_table,
                                                          argv, leaf_index):
    # one line naming N - 1, not the end of whichever chunk a scan had reached
    def refuse(*args):
        raise AssertionError("started before the coverage check")

    monkeypatch.setattr(kernel, "_pack_planes", refuse)
    monkeypatch.setattr(cobham, "_residue_counts", refuse)
    assert main([argv[0], "--seq", f"file:{short_table}", *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("range error: ") and captured.err.count("\n") == 1
    assert (f"index {2**20 - 1} reaches leaf index {leaf_index}, beyond coverage [0, 299999]"
            in captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("f, g, nmax, index", [
    ("two-three", "shift:1:two-three", 1 << 63, (1 << 63) - 1),
    ("sqrt-parity", "sqrt-parity", 1 << 64, (1 << 64) - 1),
])
def test_discrepancy_past_the_range_fails_at_once(capsys, f, g, nmax, index):
    # the scan used to run from 0 until a chunk reached 2**63
    start = time.perf_counter()
    assert main(["discrepancy", "--f", f, "--g", g, "--nmax", str(nmax)]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("range error: ") and captured.err.count("\n") == 1
    assert f"index {index} reaches leaf index" in captured.err and "2**63" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, err", [
    (["smooth", "--first", "10000000"],
     "range error: 3-smooth table of the first 10000000 entries: 7910000000 bytes exceed"),
    (["smooth", "--limit", str(10**3000)], "range error: 3-smooth table up to 1000"),
])
def test_smooth_tables_refused_before_enumerating(capsys, monkeypatch, argv, err):
    def refuse(*args):
        raise AssertionError("enumerated before the check")

    monkeypatch.setattr(smooth, "_merge", refuse)
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err.startswith(err) and captured.err.count("\n") == 1
    assert captured.out == ""


def test_union_budget_refused_in_one_line(capsys):
    # 4**10000 has more digits than int-to-str conversion allows
    assert main(["union-density", "--k", "4", "--m", "1", "--gamma", "6", "--nu", "10000"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("range error: ") and "budget" in err


def test_kernel_budget_is_a_range_error(capsys):
    # 797161 elements to depth 12 need a 5 * 10**12-byte matrix; refused before allocating
    args = ["kernel", "--seq", "two-three", "--base", "3", "--depth", "12", "--nmax", "1048576"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("range error: ") and "budget" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, err", [
    (["eval", "--seq", "compress:10:30000000:0:two-three", "--range", "0:3"],
     "range error: 10**30000000 exceeds the 2**63 index range"),
    (["eval", "--seq", "compress:2:99999999999999:0:two-three", "--range", "0:3"],
     "range error: 2**99999999999999 exceeds the 2**63 index range"),
    (["eval", "--seq", "compress:2:63:0:two-three", "--range", "0:3"],
     "range error: 2**63 exceeds the 2**63 index range"),
    (["kernel", "--seq", "two-three", "--base", "10", "--depth", "30000000"],
     "range error: the 10**30000000 kernel elements at depth 30000000 exceed the budget"),
])
def test_huge_powers_refused_before_computing_them(argv, err):
    # each power has millions of digits and took longer than 20 s to compute
    env = dict(os.environ, PYTHONPATH=str(Path(asymauto.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "asymauto.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 3
    assert done.stderr.startswith(err) and done.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, err", [
    (["smooth", "--limit", "12", "--kronecker", "1/0"], "error: tolerance '1/0' has a zero denominator"),
    (["verify", "--criteria", "99"], "error: --criteria takes ids among 1, 2, 3,"),
    (["verify", "--criteria", ","], "error: --criteria takes ids among 1, 2, 3,"),
    # a non-finite threshold used to pass silently: with tau nan every verdict was Inconclusive
    (["discrepancy", "--f", "two-three", "--g", "two-three", "--tau", "nan", "--nmax", "4096"],
     "error: tau must be finite, got nan"),
    (["discrepancy", "--f", "two-three", "--g", "two-three", "--rho", "nan", "--nmax", "4096"],
     "error: rho must be finite, got nan"),
    (["periodic-fit", "--seq", "two-three", "--tau", "inf", "--n", "4096"],
     "error: tau must be finite, got inf"),
    (["shift", "--seq", "two-three", "--m", "1", "--rho", "inf", "--nmax", "4096"],
     "error: rho must be finite, got inf"),
    (["report", "--seq", "two-three", "--k", "2", "--l", "3", "--tau", "nan", "--nmax", "4096"],
     "error: tau must be finite, got nan"),
    # a threshold at or below 0, or a decay factor at or below 1, printed a verdict
    (["discrepancy", "--f", "two-three", "--g", "shift:1:two-three", "--tau", "-1", "--nmax", "4096"],
     "error: tau must be positive, got -1.0"),
    (["discrepancy", "--f", "two-three", "--g", "shift:1:two-three", "--rho", "0", "--nmax", "4096"],
     "error: rho must exceed 1, got 0.0"),
    (["shift", "--seq", "two-three", "--m", "1", "--tau", "0", "--nmax", "4096"],
     "error: tau must be positive, got 0.0"),
    (["report", "--seq", "two-three", "--k", "2", "--l", "3", "--rho", "1", "--nmax", "4096"],
     "error: rho must exceed 1, got 1.0"),
    # only --kronecker has a JSON artifact; the refusal comes before the table's budget check
    (["smooth", "--limit", "12", "--json", "F"],
     "error: --json writes the --kronecker pairs; pass --kronecker too"),
    (["smooth", "--limit", str(10**3000), "--json", "F"],
     "error: --json writes the --kronecker pairs; pass --kronecker too"),
    # a negative --max-shift used to pass and was written into the '#' line
    (["report", "--seq", "two-three", "--k", "2", "--l", "3", "--nmax", "4096", "--max-shift", "-1"],
     "error: max_shift must be nonnegative, got -1"),
])
def test_bad_option_values_are_usage_errors(capsys, monkeypatch, tmp_path, argv, err):
    monkeypatch.chdir(tmp_path)  # where a verify run would write its outputs
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(err) and captured.err.count("\n") == 1
    assert "PASS" not in captured.out and not any(tmp_path.iterdir())


def test_kernel_compare_work_budget_is_a_range_error(capsys):
    # 1023 elements to depth 9 at the default 2**20: 8.6 * 10**9 word compares
    assert main(["kernel", "--seq", "two-three", "--base", "2", "--depth", "9"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("range error: pairwise matrix") and "word compares exceed the budget" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--seq", "two-three", "--range", "0:10000000000"],
    ["eval", "--seq", "sqrt-parity", "--range", "0:3000000000"],
])
def test_eval_budget_checked_before_evaluating(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("evaluated before the budget check")

    monkeypatch.setattr(Sequence, "values", refuse)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("range error: value table") and "budget" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_fit_sweep_budget_refused_in_one_line(capsys, monkeypatch):
    # periods 1..20000 at N = 20000 keep about 10 GB of fits: refused before any value is read
    def refuse(*args):
        raise AssertionError("evaluated before the budget check")

    monkeypatch.setattr(Sequence, "values", refuse)
    start = time.perf_counter()
    assert main(["periodic-fit", "--seq", "two-three", "--qmax", "20000", "--n", "20000"]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("range error: periodic fits of 20000 periods up to 20000: ")
    assert "budget" in err and err.count("\n") == 1


def test_file_table_refused_over_the_budget_as_it_is_read(capsys, monkeypatch, tmp_path):
    # blocks of 64 bytes hold 32 lines: the fourth block passes a budget of 100 bytes,
    # and the 309 blocks after it are not read
    path = tmp_path / "labels.txt"
    path.write_text("a\nb\n" * 5000, encoding="utf-8")
    monkeypatch.setattr(errors, "BUDGET", 100)
    monkeypatch.setattr(seqlib, "_FILE_BLOCK", 64)
    blocks, real = [], seqlib._block_ids

    def spy(*args):
        blocks.append(args[1])
        return real(*args)

    monkeypatch.setattr(seqlib, "_block_ids", spy)
    assert main(["eval", "--seq", f"file:{path}", "--range", "0:1"]) == 3
    assert blocks == [0, 64, 128, 192]
    captured = capsys.readouterr()
    assert captured.err == (f"range error: value table of file:{path} to line 128: "
                            "128 bytes exceed the budget of 100 bytes\n")
    assert captured.out == ""


@pytest.mark.parametrize("block", [3, seqlib._FILE_BLOCK])
def test_file_decode_error_is_one_usage_line(capsys, monkeypatch, tmp_path, block):
    # 40 bytes of good lines, then a label whose second byte is no UTF-8
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0\n1\n" * 10 + b"1\xff\n0\n")
    monkeypatch.setattr(seqlib, "_FILE_BLOCK", block)
    assert main(["discrepancy", "--f", f"file:{path}", "--g", "sqrt-parity"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: file:{path}: invalid UTF-8 at byte 41: invalid start byte\n"
    assert captured.out == ""


# a final checkpoint of 2**24, whose scan takes seconds
_BIG = ["--nmax", str(1 << 24)]
_TWO_CHECKPOINTS = [*_BIG, "--cp-first", str(1 << 23)]
_REPORT = ["report", "--seq", "two-three", "--k", "2", "--l", "3"]


@pytest.mark.parametrize("argv, err", [
    ([*_REPORT, "--max-period", "0", *_BIG], "max_period must be >= 1, got 0"),
    ([*_REPORT, *_TWO_CHECKPOINTS], "verdict needs at least 3 checkpoints"),
    ([*_REPORT, "--max-period", "65", "--cp-first", "16", "--nmax", "64"],
     "fitting prefix 64 shorter than period 65"),
    (["discrepancy", "--f", "sqrt-parity", "--g", "run-parity", *_TWO_CHECKPOINTS],
     "verdict needs at least 3 checkpoints"),
    (["shift", "--seq", "run-parity", "--m", "1", *_TWO_CHECKPOINTS],
     "verdict needs at least 3 checkpoints"),
])
def test_verdict_and_fit_arguments_refused_before_any_scan(capsys, monkeypatch, argv, err):
    def refuse(*args, **kwargs):
        raise AssertionError("scanned before the refusal")

    monkeypatch.setattr(Sequence, "values", refuse)
    monkeypatch.setattr(cobham, "cluster_kernel", refuse)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: {err}\n"


def test_kernel_matrix_budget_is_a_range_error(capsys):
    # a 1 MiB value table, but a 32767 x 32767 int64 matrix (8 GiB)
    args = ["kernel", "--seq", "two-three", "--base", "2", "--depth", "14", "--nmax", "64"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("range error: pairwise matrix") and "budget" in err
    assert err.count("\n") == 1


def test_fit_table_budget_is_a_range_error(capsys):
    assert main(["periodic-fit", "--seq", "two-three", "--n", str(1 << 40)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("range error: value table") and "budget" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, n, q", [
    (["periodic-fit", "--seq", "two-three", "--n", "10", "--qmax", "12"], 10, 11),
    (["report", "--seq", "two-three", "--k", "2", "--l", "3", "--nmax", "32",
      "--cp-first", "8", "--tau", "0.25"], 32, 33),
    # sweeps of 2 * 10**12 periods: refused from the range's ends, not by a walk
    (["periodic-fit", "--seq", "two-three", "--qmax", str(2 * 10**12), "--n", str(1 << 40)],
     1 << 40, (1 << 40) + 1),
    ([*_REPORT, "--max-period", str(2 * 10**12), "--nmax", str(1 << 40)],
     1 << 40, (1 << 40) + 1),
])
def test_period_longer_than_fitting_prefix_is_a_usage_error(capsys, argv, n, q):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == f"error: fitting prefix {n} shorter than period {q}\n"
    assert "best" not in captured.out


@pytest.mark.parametrize("argv", [
    ["periodic-fit", "--seq", "two-three", "--qmax", "2000000", "--n", str(1 << 40)],
    [*_REPORT, "--max-period", "2000000", "--nmax", str(1 << 40)],
])
def test_fit_sweep_budget_refused_without_a_set_of_its_periods(argv):
    # the fits' bytes come from the range's closed-form sum: a set of the
    # 2 * 10**6 periods took the peak to 165 MiB
    env = dict(os.environ, PYTHONPATH=str(Path(asymauto.__file__).parents[1]))
    argv = python_with_peak_rss("-m", "asymauto.cli", *argv)
    run = subprocess.run(argv, capture_output=True, env=env, text=True)
    assert run.returncode == 3
    assert run.stderr.startswith("range error: periodic fits of 2000000 periods up to 2000000: ")
    assert peak_rss_bytes(run.stderr) < 80 << 20


def test_expect_flag(tmp_path):
    args = ["shift", "--seq", "two-three", "--m", "1", "--nmax", "65536", "--tau", "0.002"]
    assert main(args + ["--expect", "equal"]) == 0
    assert main(args + ["--expect", "distinct"]) == 1


def test_discrepancy_outputs(tmp_path, capsys):
    csv_path = tmp_path / "prof.csv"
    json_path = tmp_path / "prof.json"
    rc = main(
        [
            "discrepancy",
            "--f", "sqrt-parity",
            "--g", "shift:1:sqrt-parity",
            "--nmax", "65536",
            "--tau", "0.004",
            "--csv", str(csv_path),
            "--json", str(json_path),
        ]
    )
    assert rc == 0
    assert "verdict: Equal" in capsys.readouterr().out
    body = csv_path.read_text(encoding="utf-8")
    assert body.startswith("# asymauto discrepancy")
    assert "N,count,fraction" in body
    obj = json.loads(json_path.read_text(encoding="utf-8").split("\n", 1)[1])
    assert obj["counts"][-1] == 256  # parity flips exactly at squares in [1, 65536]

    rc = main(
        ["discrepancy", "--f", "run-parity", "--g", "periodic:0,1,2", "--nmax", "4096"]
    )
    assert rc == 2  # alphabet size mismatch


def test_kernel_json_deterministic(tmp_path):
    args = [
        "kernel", "--seq", "leading-prime", "--base", "2", "--depth", "2",
        "--nmax", "65536", "--tau", "0.01",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--json", str(a)]) == 0
    assert main(args + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text(encoding="utf-8").split("\n", 1)[1])
    assert obj["classes"][0]["members"] == 7


def test_kernel_json_labels_in_a_base_above_256(tmp_path):
    # base-300 digits do not fit in a byte; each label's key is the padded word's digits,
    # comma-joined, and the empty word's key is ""
    def naive_text(a, r):
        digits = []
        for _ in range(a):
            r, d = divmod(r, 300)
            digits.append(d)
        return ",".join(map(str, reversed(digits)))

    path = tmp_path / "k300.json"
    args = ["kernel", "--seq", "two-three", "--base", "300", "--depth", "1", "--nmax", "1024"]
    assert main(args + ["--json", str(path)]) == 0
    obj = json.loads(path.read_text(encoding="utf-8").split("\n", 1)[1])
    words = [(0, 0)] + [(1, r) for r in range(300)]
    assert sorted(obj["labels"]) == sorted(naive_text(a, r) for a, r in words)
    for cid, c in enumerate(obj["classes"]):
        rep = c["representative"]
        assert obj["labels"][naive_text(rep["alpha"], rep["r"])] == cid


def test_python_dash_m_runs_the_command():
    env = dict(os.environ, PYTHONPATH=str(Path(asymauto.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "asymauto", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout.startswith("usage: asymauto")
    done = subprocess.run([sys.executable, "-m", "asymauto", "bogus"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "invalid choice: 'bogus'" in done.stderr


def test_periodic_fit_cli(capsys, tmp_path):
    rc = main(
        ["periodic-fit", "--seq", "periodic:0,1,1", "--q", "3", "--n", "4096",
         "--csv", str(tmp_path / "fit.csv")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "q=3: fit fraction=0" in out
    assert (tmp_path / "fit.csv").read_text(encoding="utf-8").count("\n") >= 3


def test_union_huge_gamma_refused_in_one_line(capsys):
    start = time.perf_counter()
    assert main(["union-density", "--k", "4", "--m", "1", "--gamma", "100000", "--nu", "5"]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("range error: ") and err.count("\n") == 1, err


def test_union_density_cli(capsys):
    rc = main(["union-density", "--k", "4", "--m", "1", "--gamma", "9", "--nu", "9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "covered: 209664/262144" in out
    assert "exact fraction >= floor: True" in out


def test_report_cli(tmp_path, capsys):
    rc = main(
        [
            "report", "--seq", "periodic:0,1,1", "--k", "2", "--l", "3",
            "--depth-k", "2", "--depth-l", "2", "--nmax", "16384",
            "--cp-first", "256", "--max-shift", "3", "--max-period", "6",
            "--json", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 0
    assert "summary" in capsys.readouterr().out
    obj = json.loads((tmp_path / "r.json").read_text(encoding="utf-8").split("\n", 1)[1])
    assert obj["bases"] == [2, 3]


def test_verify_subset(tmp_path):
    rc = main(["verify", "--criteria", "3,7", "--out", str(tmp_path / "vout")])
    assert rc == 0
    assert not (tmp_path / "vout").exists()  # outputs accompany full runs only


def test_verify_results_are_the_echoed_lines(tmp_path, capsys):
    out = tmp_path / "vout"
    assert main(["verify", "--criteria", "7,13", "--out", str(out)]) == 0
    echoed = capsys.readouterr().out.splitlines()
    assert echoed[-1] == f"data outputs written to {out}"
    assert (out / "results.txt").read_text(encoding="utf-8").splitlines() == echoed[:-1]
    assert echoed[0].startswith("PASS") and echoed[0].endswith("s]")


def test_stdout_determinism(capsys):
    main(["eval", "--seq", "two-three", "--range", "0:32"])
    first = capsys.readouterr().out
    main(["eval", "--seq", "two-three", "--range", "0:32"])
    assert capsys.readouterr().out == first


def test_alphabet_size_is_a_usage_error(tmp_path, capsys):
    assert main(["eval", "--seq", "periodic:300", "--range", "0:3"]) == 2
    wide = tmp_path / "wide.txt"
    wide.write_text("\n".join(str(i) for i in range(300)) + "\n", encoding="utf-8")
    assert main(["eval", "--seq", f"file:{wide}", "--range", "0:3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("between 1 and 256" in line for line in err)


def test_discrepancy_compares_labels(tmp_path, capsys):
    # the file's first line is "1", so its alphabet is ("1", "0")
    labels = [str(math.isqrt(n) & 1) for n in range(4096)]
    labels[0] = "1"
    path = tmp_path / "flipped.txt"
    path.write_text("\n".join(labels) + "\n", encoding="utf-8")
    out = tmp_path / "prof.json"
    rc = main(["discrepancy", "--f", f"file:{path}", "--g", "sqrt-parity",
               "--nmax", "4096", "--json", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text(encoding="utf-8").split("\n", 1)[1])
    assert obj["checkpoints"] == [1024, 2048, 4096]
    assert obj["counts"] == [1, 1, 1]


@pytest.mark.parametrize(
    "argv, out",
    [
        (["discrepancy", "--f", "run-parity", "--g", "shift:2:run-parity",
          "--nmax", "8192", "--tau", "0.25"], "--csv"),
        # --q and --qmax are mutually exclusive; the header must name only one
        (["periodic-fit", "--seq", "run-parity", "--q", "3", "--n", "4096"], "--csv"),
        # --depth left unset resolves to the same depth on the rebuild
        (["kernel", "--seq", "leading-prime", "--base", "2", "--nmax", "4096"], "--json"),
        (["smooth", "--first", "20"], "--csv"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_header_rebuilds_the_file(tmp_path, argv, out):
    first = tmp_path / "first.out"
    second = tmp_path / "second.out"
    assert main(argv + [out, str(first)]) == 0
    header = first.read_text(encoding="utf-8").split("\n", 1)[0]
    rebuilt = shlex.split(header.removeprefix("# "))
    assert rebuilt[:2] == ["asymauto", argv[0]]
    assert set(argv[1::2]) <= set(rebuilt) and str(first) not in rebuilt
    assert main(rebuilt[1:] + [out, str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


VERIFY_FILES = [name for names, _ in VERIFY_COMMANDS for name in names]


@pytest.fixture(scope="module")
def verify_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    write_verify_outputs(out)
    assert sorted(p.name for p in out.iterdir()) == sorted(VERIFY_FILES)
    return out


@pytest.mark.parametrize("name", VERIFY_FILES)
def test_verify_header_rebuilds_the_file(verify_out, tmp_path, name):
    first = verify_out / name
    header = first.read_text(encoding="utf-8").split("\n", 1)[0]
    rebuilt = shlex.split(header.removeprefix("# "))
    assert rebuilt[0] == "asymauto"
    second = tmp_path / name
    assert main(rebuilt[1:] + ["--" + first.suffix[1:], str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


def test_verify_raises_when_a_command_fails(tmp_path, monkeypatch):
    bad = ((("bad.csv",), ["eval", "--seq", "nope", "--range", "0:4"]),)
    monkeypatch.setattr(acceptance, "VERIFY_COMMANDS", bad)
    with pytest.raises(RuntimeError, match="exited 2: error: unknown constructor"):
        write_verify_outputs(tmp_path)


def _eval_csv(dest, hi: int) -> bytes:
    assert main(["eval", "--seq", "two-three", "--range", f"0:{hi}", "--csv", str(dest)]) == 0
    return Path(dest).read_bytes()


@pytest.mark.parametrize("first, then", [(2000, 5), (5, 2000)])
def test_rewritten_file_holds_exactly_the_new_bytes(tmp_path, capsys, first, then):
    out = tmp_path / "o.csv"
    _eval_csv(out, first)
    out.chmod(0o640)
    inode = out.stat().st_ino
    assert _eval_csv(out, then) == _eval_csv(tmp_path / "fresh.csv", then)
    assert out.stat().st_ino == inode and out.stat().st_mode & 0o777 == 0o640


def test_symlink_destination_writes_its_target(tmp_path, capsys):
    target = tmp_path / "target.csv"
    _eval_csv(target, 2000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert _eval_csv(link, 5) == _eval_csv(tmp_path / "fresh.csv", 5)
    assert link.is_symlink() and target.read_bytes() == link.read_bytes()


def test_non_regular_destination_is_only_written(capsys):
    assert main(["eval", "--seq", "two-three", "--range", "0:5", "--csv", os.devnull]) == 0


def test_unwritable_destination_is_one_usage_line(tmp_path, capsys):
    missing = tmp_path / "nope" / "o.csv"
    for dest in (tmp_path, missing):
        assert main(["eval", "--seq", "two-three", "--range", "0:5", "--csv", str(dest)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: [Errno 21] Is a directory: '{tmp_path}'",
        f"error: [Errno 2] No such file or directory: '{missing}'",
    ]


def test_verify_rewrites_results_with_only_the_new_lines(tmp_path, monkeypatch):
    sc = next(sc for sc in acceptance.SUBCHECKS if sc.criterion == "7")
    monkeypatch.setattr(acceptance, "run_criteria", lambda ids: [(sc, True, "ok", 0.0)])
    monkeypatch.setattr(acceptance, "write_verify_outputs", lambda outdir: [])
    results = tmp_path / "results.txt"
    results.write_text("an older, longer run\n" * 1000, encoding="utf-8")
    echoed = []
    assert acceptance.run_verify(tmp_path, echo=echoed.append) == 0
    assert results.read_text(encoding="utf-8").splitlines() == echoed[:-1]


def test_failed_output_ends_where_writing_stopped(tmp_path):
    def pieces():
        yield "0,+1\n"
        yield "1,+1\n"
        raise RangeError("past the end")

    out = tmp_path / "o.csv"
    out.write_text("old\n" * 1000, encoding="utf-8")
    with pytest.raises(RangeError):
        cli._emit(pieces(), str(out), "meta")
    assert out.read_bytes() == b"# meta\n0,+1\n1,+1\n"


def test_outputs_are_opened_without_truncating(tmp_path, monkeypatch, capsys):
    flags, real = [], os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    _eval_csv(tmp_path / "o.csv", 5)
    assert len(flags) == 1 and flags[0] & os.O_CREAT and not flags[0] & os.O_TRUNC


def test_first_checkpoint_below_one_is_a_usage_error(capsys):
    args = ["discrepancy", "--f", "sqrt-parity", "--g", "run-parity", "--nmax", "4096"]
    assert main(args + ["--cp-first", "-3"]) == 2
    assert main(["periodic-fit", "--seq", "run-parity", "--q", "2", "--n", "64",
                 "--cp-first", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("first checkpoint must be >= 1" in line for line in err)
    # the clamp of first to last leaves the last checkpoint to be checked
    assert main(["periodic-fit", "--seq", "run-parity", "--q", "2", "--n", "0"]) == 2
    assert main(args[:-1] + ["0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: last checkpoint must be >= 1, got 0"] * 2
