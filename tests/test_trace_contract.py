"""The benchmark's tracer still finds the functions it wraps.

`benchmarks/spans.py` patches module attributes by name and reads counts off
their arguments (`cluster_kernel`'s depth, the length of
`periodic_fit_sweep`'s result).  A rename, or a call that leaves the depth
to a default, would break `benchmarks/run.py --trace 1`; this runs the
tracer on a small report to catch that here.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from asymauto import cli, cobham, density, kernel, seqlib, smooth

_SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("asymauto_bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _main_traced(argv):
    """(exit code, the spans module, its tracer) of one CLI run under the tracer."""
    spans = _load_spans()
    prog = SimpleNamespace(cli=cli, seqlib=seqlib, density=density, kernel=kernel,
                           cobham=cobham, smooth=smooth)
    tracer = spans.Tracer()
    tracer.install(prog)
    try:
        rc = cli.main(argv)
    finally:
        tracer.remove()
    return rc, spans, tracer


def test_tracer_counts_a_report(capsys):
    rc, spans, tracer = _main_traced(["report", "--seq", "two-three", "--k", "2", "--l", "3",
                                      "--nmax", "4096", "--tau", "0.25"])
    assert rc == 0
    assert "periodic fits" in capsys.readouterr().out
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["cobham.fits_n"] == 64
    # 1 + 2 + 4 + 8 + 16 elements in base 2 (depth 4), 1 + 3 + 9 + 27 in base 3 (depth 3)
    assert metrics["kernel.elements_n"] == 71
    # each kernel element is read on its own: one materialize span per element
    assert sum(s.name == "kernel.materialize" for s in tracer.spans) == 71
    # one parse and one build per expression
    assert [s.name for s in tracer.spans if s.name in ("cli.parse", "cli.build")] == [
        "cli.parse", "cli.build"]
    assert not hasattr(cli.cobham_report, "__wrapped__")  # the originals are back


def test_tracer_sees_each_expression_and_the_file_load(tmp_path, capsys):
    path = tmp_path / "labels.txt"
    path.write_text("0\n1\n" * 64, encoding="utf-8")
    rc, _, tracer = _main_traced(["discrepancy", "--f", f"shift:1:file:{path}",
                                  "--g", "sqrt-parity", "--nmax", "64", "--cp-first", "16"])
    assert rc == 0
    assert "verdict" in capsys.readouterr().out
    names = [s.name for s in tracer.spans]
    assert names.count("cli.parse") == names.count("cli.build") == 2
    # the file is loaded through cli.sequence_from_file, inside the first build
    (load,) = [s for s in tracer.spans if s.name == "seqlib.file_load"]
    assert tracer.spans[load.parent].name == "cli.build"
    assert not hasattr(cli.sequence_from_file, "__wrapped__")
