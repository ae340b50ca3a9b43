import json
import math
import shlex

import pytest

from asymauto import acceptance
from asymauto.acceptance import VERIFY_COMMANDS, write_verify_outputs
from asymauto.cli import (
    CompressExpr,
    LeafExpr,
    PeriodicExpr,
    ShiftExpr,
    build_sequence,
    main,
    parse_expr,
)
from asymauto.errors import ExprError


def test_parse_examples():
    assert parse_expr("shift:1:two-three") == ShiftExpr(1, LeafExpr("two-three"))
    assert parse_expr("compress:2:1:0:run-parity") == CompressExpr(
        2, 1, 0, LeafExpr("run-parity")
    )
    assert parse_expr("periodic:0,1,1") == PeriodicExpr((0, 1, 1))
    nested = parse_expr("shift:2:compress:3:1:2:sqrt-parity")
    assert nested == ShiftExpr(2, CompressExpr(3, 1, 2, LeafExpr("sqrt-parity")))


def test_parse_error_offsets():
    with pytest.raises(ExprError) as e:
        parse_expr("compress:2:1:2:run-parity")
    assert "residue 2 >= 2**1" in str(e.value)
    assert e.value.offset == 13
    with pytest.raises(ExprError) as e:
        parse_expr("bogus")
    assert e.value.offset == 0
    with pytest.raises(ExprError) as e:
        parse_expr("shift:1: two-three")
    assert e.value.offset == 8
    with pytest.raises(ExprError) as e:
        parse_expr("two-three:junk")
    assert e.value.offset == 9
    with pytest.raises(ExprError) as e:
        parse_expr("shift:x:two-three")
    assert e.value.offset == 6
    with pytest.raises(ExprError):
        parse_expr("")
    with pytest.raises(ExprError):
        parse_expr("periodic:1,,2")
    with pytest.raises(ExprError):
        parse_expr("file:")


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
    assert (
        main(
            ["eval", "--seq", "compress:2:30:0:two-three", "--range", "0:4",
             "--smooth-limit", str(1 << 20)]
        )
        == 3
    )
    assert main(["--help"]) == 0
    assert main(["smooth", "--help"]) == 0
    assert main([]) == 2


def test_kernel_budget_is_a_range_error(capsys):
    # 3**12 * 2**20 values would be materialised; refused before allocating
    args = ["kernel", "--seq", "two-three", "--base", "3", "--depth", "12", "--nmax", "1048576"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("range error: ") and "budget" in err
    assert err.count("\n") == 1


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


def test_periodic_fit_cli(capsys, tmp_path):
    rc = main(
        ["periodic-fit", "--seq", "periodic:0,1,1", "--q", "3", "--n", "4096",
         "--csv", str(tmp_path / "fit.csv")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "q=3: fit fraction=0" in out
    assert (tmp_path / "fit.csv").read_text(encoding="utf-8").count("\n") >= 3


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


def test_first_checkpoint_below_one_is_a_usage_error(capsys):
    args = ["discrepancy", "--f", "sqrt-parity", "--g", "run-parity", "--nmax", "4096"]
    assert main(args + ["--cp-first", "-3"]) == 2
    assert main(["periodic-fit", "--seq", "run-parity", "--q", "2", "--n", "64",
                 "--cp-first", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("first checkpoint must be >= 1" in line for line in err)
