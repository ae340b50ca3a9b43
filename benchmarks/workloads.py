"""The four workloads: their inputs, their operations and the checks on each output.

An operation is one CLI invocation (through `asymauto.cli.main`, in process)
or one batch of library calls.  A round runs every operation of a workload
once, in a fixed order; runs measure whole rounds.  Every check compares the
program's output with an oracle from oracles.py or with a property the
method must have; none compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracles


def doubling(first: int, last: int) -> list:
    """first, 2 first, 4 first, ... below last, then last: the CLI's default schedule."""
    out = []
    v = first
    while v < last:
        out.append(v)
        v *= 2
    return out + [last]


@dataclass
class Op:
    name: str
    run: Callable  # prog -> output
    check: Callable  # output -> None when right, else what is wrong
    argv: Optional[list] = None  # CLI arguments, parsed again during set-up
    exprs: tuple = ()  # sequence expressions, built again during set-up
    known_fault: Optional[str] = None  # a failed check is counted, not an error
    span: Optional[str] = None  # span the benchmark opens around a library batch
    size: int = 0  # calls in that batch


def run_cli(prog, argv: list):
    """asymauto.cli.main(argv) with stdout captured: (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = prog.cli.main(argv)
    return code, out.getvalue()


def read_emitted(path: Path):
    """The data of an emitted file: everything after its leading '#' line."""
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    if not header.startswith("# asymauto "):
        raise ValueError(f"{path.name}: no '# asymauto' header line")
    return json.loads(body)


def cli_op(name, argv, exprs, json_path: Path, check_data, known_fault=None) -> Op:
    """A CLI operation whose --json output is handed to check_data."""

    def check(output):
        code, _ = output
        if code != 0:
            return f"exit code {code}"
        return check_data(read_emitted(json_path))

    argv = list(argv) + ["--json", str(json_path)]
    return Op(name, lambda prog: run_cli(prog, argv), check, argv=argv,
              exprs=tuple(exprs), known_fault=known_fault)


def profile_check(checkpoints: list, expected: list):
    def check(data):
        if data["checkpoints"] != checkpoints:
            return f"checkpoints {data['checkpoints']} != {checkpoints}"
        if data["counts"] != expected:
            return f"counts {data['counts']} != oracle {expected}"
        return None

    return check


class Workload:
    name = ""
    pace = "numpy"  # the pace.py probe of the kind of work its rounds do

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ops: list = []

    def prepare(self) -> None:
        """Make the inputs and the oracle answers, and list the operations."""

    def build(self, prog) -> None:
        """The set-up a user pays before the work: parse every argument list
        and build every sequence the operations name."""
        parser = prog.cli.build_parser()
        for op in self.ops:
            if op.argv is not None:
                parser.parse_args(op.argv)
            for expr in op.exprs:
                prog.cli.build_sequence(expr)

    def begin(self, prog) -> None:
        """Called once before the first round."""

    def end(self) -> None:
        """Called once after the last round."""


# ---------------------------------------------------------------------------
# report: the two-base experiment of the paper, end to end
# ---------------------------------------------------------------------------


class Report(Workload):
    name = "report"
    N = 1 << 20
    TAU = 0.25
    SHIFTS = 8
    PERIODS = 64

    def prepare(self):
        n = self.N
        self.cps = doubling(1 << 10, n)
        # covers n + 8 for the shifts and 3(n-1) + 2 for the base-3 depth-1 elements
        table = oracles.two_three_indices(3 * n)
        self.shift_counts = {m: oracles.shift_mismatches(table, m, self.cps)
                             for m in range(1, self.SHIFTS + 1)}
        self.minorities = {q: oracles.minority_sum(table[:n], q, 2)
                           for q in range(1, self.PERIODS + 1)}
        self.pairs = {
            2: oracles.pairwise_mismatches(table, 2, [(0, 0), (1, 0), (1, 1)], n),
            3: oracles.pairwise_mismatches(table, 3, [(0, 0), (1, 0), (1, 1), (1, 2)], n),
        }
        argv = ["report", "--seq", "two-three", "--k", "2", "--l", "3",
                "--tau", str(self.TAU), "--nmax", str(n)]
        self.ops = [
            cli_op("report two-three k=2 l=3", argv, ["two-three"],
                   self.workdir / "report.json", self.check_report),
            Op("check_labeling_consistency, both bases", self.consistency,
               self.check_consistency),
        ]

    def begin(self, prog):
        self.cli = prog.cli
        original = prog.cli.cobham_report

        def capture(*args, **kwargs):
            report = original(*args, **kwargs)
            self.last_report = report
            return report

        prog.cli.cobham_report = capture
        self.original = original

    def end(self):
        self.cli.cobham_report = self.original

    def consistency(self, prog):
        report = self.last_report
        return [(q, prog.kernel.check_labeling_consistency(q))
                for q in (report.quotient_k, report.quotient_l)]

    def check_report(self, data):
        report = self.last_report
        for q in (report.quotient_k, report.quotient_l):
            problem = self.check_quotient(q)
            if problem:
                return f"base {q.base}: {problem}"
            if data["quotients"][str(q.base)]["classes"] != q.class_count:
                return f"base {q.base}: JSON class count differs from the quotient"
        got = {s["m"]: s["counts"] for s in data["shifts"]}
        if got != self.shift_counts:
            return f"shift counts {got} != oracle {self.shift_counts}"
        if [p.period for p in report.fits] != list(range(1, self.PERIODS + 1)):
            return "fits do not cover q = 1..64"
        for p, row in zip(report.fits, data["fits"]):
            want = self.minorities[p.period]
            if p.profile.counts[-1] != want or row["fit_fraction"] != want / self.N:
                return (f"q={p.period}: disagreement {p.profile.counts[-1]} "
                        f"(JSON {row['fit_fraction']}) != minority sum {want}")
        return None

    def check_quotient(self, q):
        """Greedy first-fit clustering properties, and depth-1 counts against the oracle."""
        order = [(a, r) for a in range(q.depth + 1) for r in range(q.base**a)]
        index = {e: i for i, e in enumerate(order)}
        m = q.matrix
        budget = self.TAU * self.N
        if m.shape != (len(order), len(order)):
            return f"matrix shape {m.shape} for {len(order)} elements"
        if not np.array_equal(m, m.T) or m.diagonal().any():
            return "pairwise matrix not symmetric with a zero diagonal"
        oracle = self.pairs[q.base]
        if not np.array_equal(m[: len(oracle), : len(oracle)], oracle):
            return "depth <= 1 pairwise counts differ from the oracle"
        reps = [index[c.rep] for c in q.classes]
        for e, cid in q.labels.items():
            i = index[e]
            if m[i, reps[cid]] > budget:
                return f"{e} is more than tau*N from its representative"
            # for a representative this says it is far from every earlier one
            if any(m[i, r] <= budget for r in reps[:cid]):
                return f"{e} is within tau*N of an earlier class's representative"
            if q.profiles[e][-1] != m[i, reps[cid]]:
                return f"{e}: final profile count differs from the matrix"
        return None

    def check_consistency(self, output):
        for q, violations in output:
            items = sorted(e for e in q.labels if e[0] < q.depth)
            want = set()
            for i, v in enumerate(items):
                for w in items[i + 1:]:
                    if q.labels[v] != q.labels[w]:
                        continue
                    for digit in range(q.base):
                        ev = (v[0] + 1, digit * q.base ** v[0] + v[1])
                        ew = (w[0] + 1, digit * q.base ** w[0] + w[1])
                        if q.labels[ev] != q.labels[ew]:
                            want.add((digit, v, w))
            got = {(x.digit, x.left, x.right) for x in violations}
            if got != want or len(violations) != len(want):
                return f"base {q.base}: {len(violations)} violations, recount finds {len(want)}"
        return None


# ---------------------------------------------------------------------------
# scan: long discrepancy scans through every evaluator, no kernel, no fits
# ---------------------------------------------------------------------------


class Scan(Workload):
    name = "scan"
    LONG = 1 << 24
    SHORT = 1 << 22
    FILE_FAULT = ("labels are compared by internal index, not by label: a file whose "
                  "first line is 1 reports N-1 disagreements instead of 1")

    def prepare(self):
        long_cps = doubling(1 << 10, self.LONG)
        short_cps = doubling(1 << 10, self.SHORT)
        labels = oracles.sqrt_parity_labels(self.SHORT)
        labels[0] ^= 1
        text = np.empty(2 * self.SHORT, dtype=np.uint8)
        text[0::2] = labels + ord("0")
        text[1::2] = ord("\n")
        path = self.workdir / "sqrt-parity-flipped-at-0.txt"
        path.write_bytes(text.tobytes())
        out = self.workdir
        self.ops = [
            cli_op("discrepancy sqrt-parity vs compress:5:1:0", [
                "discrepancy", "--f", "sqrt-parity", "--g", "compress:5:1:0:sqrt-parity",
                "--nmax", str(self.LONG)], ["sqrt-parity", "compress:5:1:0:sqrt-parity"],
                out / "scan-sqrt.json",
                profile_check(long_cps, oracles.sqrt_parity_scaled_mismatches(5, long_cps))),
            cli_op("shift run-parity m=1", [
                "shift", "--seq", "run-parity", "--m", "1", "--nmax", str(self.SHORT)],
                ["run-parity"], out / "scan-run.json",
                profile_check(short_cps, oracles.run_parity_shift_mismatches(1, short_cps))),
            cli_op("discrepancy leading-prime vs compress:2:1:1", [
                "discrepancy", "--f", "leading-prime", "--g", "compress:2:1:1:leading-prime",
                "--nmax", str(self.SHORT)], ["leading-prime", "compress:2:1:1:leading-prime"],
                out / "scan-leading.json",
                profile_check(short_cps,
                              oracles.leading_prime_odd_compression_mismatches(short_cps))),
            cli_op("discrepancy file: vs sqrt-parity", [
                "discrepancy", "--f", f"file:{path}", "--g", "sqrt-parity",
                "--nmax", str(self.SHORT)], [f"file:{path}", "sqrt-parity"],
                out / "scan-file.json", profile_check(short_cps, [1] * len(short_cps)),
                known_fault=self.FILE_FAULT),
        ]


# ---------------------------------------------------------------------------
# union: the residue-class union scan, which evaluates no sequence
# ---------------------------------------------------------------------------


class Union(Workload):
    name = "union"
    pace = "python"
    # criterion 12's two parameter sets, then 4^13 bits and 1.4 million intervals
    PARAMS = [(4, 1, 12, 12), (8, 3, 15, 9), (4, 1, 13, 13)]

    def prepare(self):
        self.ops = []
        for k, m, gamma, nu in self.PARAMS:
            argv = ["union-density", "--k", str(k), "--m", str(m), "--gamma", str(gamma),
                    "--nu", str(nu)]
            self.ops.append(cli_op(
                f"union-density k={k} m={m} gamma={gamma} nu={nu}", argv, [],
                self.workdir / f"union-{k}-{m}-{gamma}-{nu}.json",
                union_check(k, m, gamma, nu)))


def union_check(k, m, gamma, nu):
    covered = oracles.union_coverage(k, m, 1, gamma, nu)
    p, floor = oracles.union_floor(k, m, gamma)

    def check(data):
        if data["total"] != k**nu or data["covered"] != covered:
            return f"covered {data['covered']}/{data['total']} != oracle {covered}/{k**nu}"
        if data["p"] != f"{p.numerator}/{p.denominator}":
            return f"p {data['p']} != {p}"
        if data["bound"] != f"{floor.numerator}/{floor.denominator}":
            return f"bound {data['bound']} != {floor}"
        if Fraction(covered, k**nu) < floor or data["meets_bound"] is not True:
            return "covered fraction below the analytic floor"
        return None

    return check


# ---------------------------------------------------------------------------
# digits: the pure-Python per-call layer (criterion 1's load)
# ---------------------------------------------------------------------------


class Digits(Workload):
    name = "digits"
    pace = "python"
    TRIPS = 10**6
    BATCHES = 5  # the round trips run as 5 operations, so the pace is probed between them
    PADDED = 10**5
    SAMPLE = 2000

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.ns = rng.integers(0, 1 << 40, size=self.TRIPS).tolist()
        self.ks = rng.integers(2, 11, size=self.TRIPS).tolist()
        self.pns = rng.integers(0, 1 << 40, size=self.PADDED).tolist()
        self.pks = rng.integers(2, 11, size=self.PADDED).tolist()
        self.pas = rng.integers(0, 25, size=self.PADDED).tolist()
        self.pwant = [n % k**a for n, k, a in zip(self.pns, self.pks, self.pas)]
        self.sample = rng.choice(self.TRIPS, size=self.SAMPLE, replace=False).tolist()
        self.psample = rng.choice(self.PADDED, size=self.SAMPLE, replace=False).tolist()
        size = self.TRIPS // self.BATCHES
        self.ops = [
            Op(f"expand/value round trips {lo}..{lo + size - 1}",
               functools.partial(self.round_trips, lo=lo, hi=lo + size),
               functools.partial(self.check_round_trips, lo=lo, hi=lo + size),
               span="digits.round_trip", size=size)
            for lo in range(0, self.TRIPS, size)
        ]
        self.ops.append(Op("expand_padded/value round trips", self.padded, self.check_padded,
                           span="digits.round_trip", size=self.PADDED))

    def begin(self, prog):
        self.digits = prog.digits

    def round_trips(self, prog, lo, hi):
        expand, value = prog.digits.expand, prog.digits.value
        return [value(expand(n, k)) for n, k in zip(self.ns[lo:hi], self.ks[lo:hi])]

    def padded(self, prog):
        expand_padded, value = prog.digits.expand_padded, prog.digits.value
        return [value(expand_padded(n, k, a)) for n, k, a in zip(self.pns, self.pks, self.pas)]

    def check_round_trips(self, back, lo, hi):
        if back != self.ns[lo:hi]:
            return "value(expand(n, k)) != n"
        for i in (i for i in self.sample if lo <= i < hi):
            n, k = self.ns[i], self.ks[i]
            w = self.digits.expand(n, k)
            if w.base != k or (w.digits and w.digits[0] == 0) or \
                    any(not 0 <= d < k for d in w.digits) or oracles.digits_value(w.digits, k) != n:
                return f"expand({n}, {k}) = {w.digits} is not the base-{k} expansion"
        return None

    def check_padded(self, back):
        if back != self.pwant:
            return "value(expand_padded(n, k, a)) != n mod k^a"
        for i in self.psample:
            n, k, a = self.pns[i], self.pks[i], self.pas[i]
            w = self.digits.expand_padded(n, k, a)
            if len(w.digits) != a or oracles.digits_value(w.digits, k) != n % k**a:
                return f"expand_padded({n}, {k}, {a}) = {w.digits}"
        return None


WORKLOADS = {w.name: w for w in (Report, Scan, Union, Digits)}
