"""Command-line front door: sequence expressions, experiments, exports.

A sequence expression is a chain with ':' separators and no whitespace:
zero or more steps, `shift:m:` or `compress:k:a:r:`, then exactly one leaf,
e.g. `shift:1:two-three` or `compress:2:1:0:run-parity`.  The leaves
`periodic:` and `file:` consume the rest of the expression.

Exit codes: 0 success, 1 verdict/acceptance failure, 2 usage or parse error,
3 range/overflow error.  Data outputs are byte-identical across reruns with
identical flags; run metadata sits on '#'-prefixed header lines, never in the
data itself.  No environment variable is read.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shlex
import stat
import sys
from fractions import Fraction
from pathlib import Path

from . import density, smooth
from .cobham import (
    DEFAULT_MAX_PERIOD,
    DEFAULT_MAX_SHIFT,
    cobham_report,
    fits_to_csv,
    periodic_fit_sweep,
    shift_invariance,
)
from .density import (
    Checkpoints,
    VerdictPolicy,
    check_verdict_schedule,
    discrepancy_profile,
    verdict,
)
from .errors import ExprError, RangeError
from .kernel import check_labeling_consistency, cluster_kernel, default_depth, quotient_to_json
from .seqlib import (
    Sequence,
    compress,
    periodic,
    seq_leading_prime,
    seq_run_parity,
    seq_sqrt_parity,
    seq_two_three,
    sequence_from_file,
    shift,
)

DEFAULT_SMOOTH_LIMIT = 1 << 40
DEFAULT_NMAX = 1 << 20
DEFAULT_CP_FIRST = 1 << 10


# ---------------------------------------------------------------------------
# sequence expression language
# ---------------------------------------------------------------------------


# the leaves built from their step's arguments alone; file: calls this module's
# `sequence_from_file`, the name a tracer wraps
_LEAVES = {"leading-prime": seq_leading_prime, "run-parity": seq_run_parity,
           "sqrt-parity": seq_sqrt_parity, "two-three": seq_two_three, "periodic": periodic}


def _take_token(text: str, pos: int):
    end = text.find(":", pos)
    if end == -1:
        end = len(text)
    return text[pos:end], end


def _expect_colon(text: str, pos: int) -> int:
    if pos >= len(text) or text[pos] != ":":
        raise ExprError("expected ':' and another argument", pos)
    return pos + 1


def _take_int(text: str, pos: int, what: str):
    token, end = _take_token(text, pos)
    if not token or not (token.isascii() and token.isdigit()):
        raise ExprError(f"expected nonnegative integer for {what}, got {token!r}", pos)
    return int(token), end


def _parse_leaf(text: str, token: str, pos: int, end: int) -> tuple:
    """The leaf step named by `token` at `pos`; it ends the expression."""
    if token == "periodic":
        end = _expect_colon(text, end)
        if end == len(text):
            raise ExprError("periodic needs a comma-separated value list", end)
        values = []
        for part in text[end:].split(","):
            if not (part.isascii() and part.isdigit()):
                raise ExprError(f"bad periodic value {part!r}", end)
            values.append(int(part))
            end += len(part) + 1
        return ("periodic", tuple(values))
    if token == "file":
        end = _expect_colon(text, end)
        if end == len(text):
            raise ExprError("file needs a path", end)
        return ("file", text[end:])
    if token in _LEAVES:
        if end != len(text):
            raise ExprError("trailing characters after expression", end)
        return (token,)
    raise ExprError(f"unknown constructor {token!r}", pos)


def parse_expr(text: str) -> tuple:
    """The steps of a sequence expression, outermost first; errors carry the byte offset.

    Steps are ("shift", m) and ("compress", k, alpha, r); the last is the leaf,
    (name,), ("periodic", values) or ("file", path).
    """
    for i, ch in enumerate(text):
        if ch.isspace():
            raise ExprError("whitespace is not allowed in expressions", i)
    if not text:
        raise ExprError("empty expression", 0)
    steps = []
    pos = 0
    while True:
        token, end = _take_token(text, pos)
        if token == "shift":
            m, end = _take_int(text, _expect_colon(text, end), "shift amount")
            steps.append(("shift", m))
        elif token == "compress":
            k_at = _expect_colon(text, end)
            k, end = _take_int(text, k_at, "base")
            if k < 2:
                raise ExprError(f"base must be >= 2, got {k}", k_at)
            alpha, end = _take_int(text, _expect_colon(text, end), "depth")
            r_at = _expect_colon(text, end)
            r, end = _take_int(text, r_at, "residue")
            if alpha < 63 and r >= k**alpha:  # compress refuses alpha >= 63 before the power
                raise ExprError(f"residue {r} >= {k}**{alpha}", r_at)
            steps.append(("compress", k, alpha, r))
        else:
            steps.append(_parse_leaf(text, token, pos, end))
            return tuple(steps)
        pos = _expect_colon(text, end)


class SequenceBuilder:
    """Turns parsed expressions into sequences."""

    def build(self, steps) -> Sequence:
        """The sequence of `parse_expr`'s steps: the leaf, then each step from the inside out."""
        leaf, *args = steps[-1]
        f = sequence_from_file(*args) if leaf == "file" else _LEAVES[leaf](*args)
        for name, *args in reversed(steps[:-1]):
            f = shift(f, *args) if name == "shift" else compress(f, *args)
        return f


def build_sequence(text: str) -> Sequence:
    return SequenceBuilder().build(parse_expr(text))


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def write_output(path, pieces) -> None:
    """Write the text pieces over path's old bytes, then cut the file where they end.

    Opening with O_TRUNC waits, on ext4 with delayed allocation, for the
    write-back of the old contents; writing in place does not.  The cut runs
    even when a piece raises, so the file ends where writing stopped.  A
    destination that is not a regular file (/dev/null, a FIFO) is only written.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              encoding="utf-8", newline="\n") as out:
        try:
            out.writelines(pieces)
        finally:
            out.flush()
            fd = out.fileno()
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _emit(pieces, dest: str | None, meta: str) -> None:
    """Write the '#' metadata line, then each text piece, to stdout for '-', else to dest."""
    lines = itertools.chain([f"# {meta}\n"], pieces)
    if dest is None or dest == "-":
        sys.stdout.writelines(lines)
    else:
        write_output(dest, lines)


def _meta(args) -> str:
    """The command that rebuilds an output: every parsed option but the destinations.

    Options parsed to None are left out; their handlers resolve them the same
    way on a rebuild.  Options a command ignores (smooth --limit beside
    --first) are written too, since passing them again changes nothing.
    """
    argv = ["asymauto", args.command]
    for dest, value in vars(args).items():
        if dest not in ("command", "handler", "csv", "json") and value is not None:
            argv += ["--" + dest.replace("_", "-"), str(value)]
    return shlex.join(argv)


def _checkpoints(args) -> Checkpoints:
    return Checkpoints.geometric(args.cp_first, args.nmax)


def _policy(args) -> VerdictPolicy:
    return VerdictPolicy(tau=args.tau, rho=args.rho)


def _parse_range(text: str):
    lo, sep, hi = text.partition(":")
    ok = sep and lo.isascii() and lo.isdigit() and hi.isascii() and hi.isdigit()
    if not ok:
        raise ExprError(f"expected A:B range, got {text!r}", 0)
    a, b = int(lo), int(hi)
    if b < a:
        raise ExprError(f"empty range {text!r}", 0)
    return a, b


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    f = build_sequence(args.seq)
    a, b = _parse_range(args.range)

    def label_blocks():
        # one block of labels at a time, so memory stays within one scan chunk
        return ((a + lo, [f.alphabet[i] for i in block.tolist()])
                for lo, block in density.value_blocks(f, b - a, a))

    blocks = label_blocks()  # value_blocks refuses a range over the budget here
    if b > a:
        f.values(b - 1, 1)  # past coverage or 2**63: fail at once, naming b - 1
    for lo, labels in blocks:
        sys.stdout.write(("," if lo > a else "") + ",".join(labels))
    sys.stdout.write("\n")
    if args.csv is not None:
        rows = (
            "".join(f"{n},{lab}\n" for n, lab in enumerate(labels, lo))
            for lo, labels in label_blocks()
        )
        _emit(itertools.chain(["n,value\n"], rows), args.csv, _meta(args))
    return 0


def _cmd_smooth(args) -> int:
    if args.json is not None and args.kronecker is None:
        raise ValueError("--json writes the --kronecker pairs; pass --kronecker too")
    if args.first is not None:
        table = smooth.first_smooth(args.first)
    else:
        table = smooth.enumerate_smooth(args.limit)
    print(f"entries: {len(table)}  last: {table[-1].value}")
    if args.csv is not None:
        _emit(smooth.table_to_csv(table), args.csv, _meta(args))
    if args.ratio_range:
        lo, hi = _parse_range(args.ratio_range)
        prof = smooth.ratio_profile(table, lo, hi)
        print(
            f"max ratio over [{lo},{hi}): {prof.numerator}/{prof.denominator}"
            f" = {prof.decimal!r} at i={prof.argmax}"
        )
    if args.kronecker is not None:
        try:
            t = Fraction(args.kronecker)
        except ZeroDivisionError:
            raise ValueError(f"tolerance {args.kronecker!r} has a zero denominator") from None
        gaps = smooth.kronecker_gap(t)
        g = gaps.smallest_gamma
        d = gaps.smallest_delta
        print(
            f"smallest-gamma pair: (gamma={g.gamma}, delta={g.delta}) "
            f"ratio {g.numerator}/{g.denominator}"
        )
        print(
            f"smallest-delta pair: (gamma={d.gamma}, delta={d.delta}) "
            f"ratio {d.numerator}/{d.denominator}"
        )
        if args.json is not None:
            _emit([smooth.kronecker_to_json(gaps)], args.json, _meta(args))
    return 0


def _profile_output(args, profile, v) -> None:
    for n, c, fr in zip(profile.checkpoints, profile.counts, profile.fractions):
        print(f"N={n}: count={c} fraction={fr:.6g}")
    print(f"verdict: {v.value}")
    if args.csv is not None:
        _emit([profile.to_csv()], args.csv, _meta(args))
    if args.json is not None:
        _emit([profile.to_json()], args.json, _meta(args))


def _expect_exit(args, v) -> int:
    if args.expect is not None and v.value.lower() != args.expect:
        print(f"expected verdict {args.expect}, got {v.value}", file=sys.stderr)
        return 1
    return 0


def _cmd_discrepancy(args) -> int:
    policy = _policy(args)  # refuse a bad policy or schedule before the scan
    cps = _checkpoints(args)
    check_verdict_schedule(cps)
    f = build_sequence(args.f)
    g = build_sequence(args.g)
    profile = discrepancy_profile(f, g, cps)
    v = verdict(profile, policy)
    _profile_output(args, profile, v)
    return _expect_exit(args, v)


def _cmd_shift(args) -> int:
    f = build_sequence(args.seq)
    result = shift_invariance(f, args.m, _checkpoints(args), _policy(args))
    _profile_output(args, result.profile, result.verdict)
    return _expect_exit(args, result.verdict)


def _cmd_kernel(args) -> int:
    f = build_sequence(args.seq)
    depth = args.depth if args.depth is not None else default_depth(args.base)
    q = cluster_kernel(f, args.base, depth, _checkpoints(args), args.tau)
    violations = check_labeling_consistency(q)
    print(
        f"classes: {q.class_count}  by depth: {list(q.classes_by_depth)}  "
        f"finiteness: {q.finiteness}  violations: {len(violations)}"
    )
    for cid, c in enumerate(q.classes):
        print(f"  class {cid}: rep (alpha={c.rep[0]}, r={c.rep[1]}), members {len(c.members)}")
    if args.json is not None:
        _emit(quotient_to_json(q, violations), args.json, _meta(args))
    return 0


def _cmd_periodic_fit(args) -> int:
    f = build_sequence(args.seq)
    if args.q is not None:
        periods = [args.q]
    else:
        periods = range(1, (args.qmax if args.qmax is not None else DEFAULT_MAX_PERIOD) + 1)
    cps = Checkpoints.geometric(args.cp_first, args.n)
    fits = periodic_fit_sweep(f, periods, cps, _policy(args))
    for p in fits:
        print(
            f"q={p.period}: fit fraction={p.fit_fraction:.6g} "
            f"min margin={p.min_margin:.6g} verdict={p.verdict.value}"
        )
    best = min(fits, key=lambda p: p.fit_fraction)
    print(f"best: q={best.period} fraction={best.fit_fraction:.6g}")
    if args.csv is not None:
        _emit([fits_to_csv(fits)], args.csv, _meta(args))
    return 0


def _cmd_union_density(args) -> int:
    res = density.union_density_experiment(args.k, args.m, args.delta, args.gamma, args.nu)
    print(f"covered: {res.covered}/{res.total} = {res.fraction:.6f}")
    print(f"analytic floor: {float(res.bound):.6f} (p = {res.success_p})")
    print(f"exact fraction >= floor: {res.meets_bound}")
    if args.json is not None:
        _emit([res.to_json()], args.json, _meta(args))
    return 0


def _cmd_report(args) -> int:
    f = build_sequence(args.seq)
    report = cobham_report(
        f,
        args.k,
        args.l,
        depth_k=args.depth_k,
        depth_l=args.depth_l,
        cps=_checkpoints(args),
        tau=args.tau,
        policy=_policy(args),
        max_shift=args.max_shift,
        max_period=args.max_period,
    )
    print(report.to_text(), end="")
    if args.json is not None:
        _emit([report.to_json()], args.json, _meta(args))
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    ids = None
    if args.criteria is not None:
        ids = [c.strip() for c in args.criteria.split(",") if c.strip()]
        if not ids or not set(ids) <= acceptance.CRITERION_TITLES.keys():
            known = ", ".join(acceptance.CRITERION_TITLES)
            raise ValueError(f"--criteria takes ids among {known}, got {args.criteria!r}")
    return acceptance.run_verify(Path(args.out), ids=ids)


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_common(p) -> None:
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX, help="final checkpoint")
    p.add_argument("--cp-first", type=int, default=DEFAULT_CP_FIRST, help="first checkpoint")
    p.add_argument("--tau", type=float, default=VerdictPolicy.tau, help="verdict/cluster threshold")


def _add_rho(p) -> None:
    """--rho, added after `_add_common` by the commands that read a verdict (kernel reads none)."""
    p.add_argument("--rho", type=float, default=VerdictPolicy.rho, help="verdict decay factor")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="asymauto",
        description="desk-scale experiments on digit statistics, k-kernels, "
        "3-smooth orderings, and prefix densities",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a sequence on a range",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--seq", required=True, help="sequence expression")
    p.add_argument("--range", required=True, help="half-open range A:B")
    p.add_argument("--csv", nargs="?", const="-", default=None, help="CSV out (path or stdout)")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("smooth", help="enumerate 3-smooth numbers and gap data",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--limit", type=int, default=DEFAULT_SMOOTH_LIMIT, help="value coverage")
    p.add_argument("--first", type=int, default=None, help="enumerate first N entries instead")
    p.add_argument("--csv", nargs="?", const="-", default=None, help="CSV out (path or stdout)")
    p.add_argument("--ratio-range", default=None, help="index window I:J for max gap ratio")
    p.add_argument("--kronecker", default=None, help="tolerance t for the exponent gap search")
    p.add_argument("--json", nargs="?", const="-", default=None, help="JSON out (path or stdout)")
    p.set_defaults(handler=_cmd_smooth)

    p = sub.add_parser("discrepancy", help="profile where two sequences disagree",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--f", required=True, help="left sequence expression")
    p.add_argument("--g", required=True, help="right sequence expression")
    p.add_argument("--csv", nargs="?", const="-", default=None)
    p.add_argument("--json", nargs="?", const="-", default=None)
    p.add_argument("--expect", choices=["equal", "distinct", "inconclusive"], default=None,
                   help="exit 1 unless the verdict matches")
    _add_common(p)
    _add_rho(p)
    p.set_defaults(handler=_cmd_discrepancy)

    p = sub.add_parser("shift", help="profile a sequence against its shift",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--seq", required=True)
    p.add_argument("--m", type=int, required=True, help="shift amount (>= 1)")
    p.add_argument("--csv", nargs="?", const="-", default=None)
    p.add_argument("--json", nargs="?", const="-", default=None)
    p.add_argument("--expect", choices=["equal", "distinct", "inconclusive"], default=None)
    _add_common(p)
    _add_rho(p)
    p.set_defaults(handler=_cmd_shift)

    p = sub.add_parser("kernel", help="cluster the bounded-depth kernel of a sequence",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--seq", required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--depth", type=int, default=None, help="defaults to 4 (base 2) or 3")
    p.add_argument("--json", nargs="?", const="-", default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("periodic-fit", help="fit periodic approximants by majority vote",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--seq", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--q", type=int, default=None, help="single period to fit")
    group.add_argument("--qmax", type=int, default=None,
                       help=f"sweep periods 1..Q (defaults to {DEFAULT_MAX_PERIOD})")
    p.add_argument("--n", type=int, default=DEFAULT_NMAX, help="fitting prefix length")
    p.add_argument("--cp-first", type=int, default=DEFAULT_CP_FIRST)
    p.add_argument("--tau", type=float, default=VerdictPolicy.tau)
    p.add_argument("--rho", type=float, default=VerdictPolicy.rho)
    p.add_argument("--csv", nargs="?", const="-", default=None)
    p.set_defaults(handler=_cmd_periodic_fit)

    p = sub.add_parser("union-density", help="exact residue-class union coverage",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--json", nargs="?", const="-", default=None)
    p.set_defaults(handler=_cmd_union_density)

    p = sub.add_parser("report", help="two-base kernel/shift/periodicity report",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--seq", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--depth-k", type=int, default=None)
    p.add_argument("--depth-l", type=int, default=None)
    p.add_argument("--max-shift", type=int, default=DEFAULT_MAX_SHIFT)
    p.add_argument("--max-period", type=int, default=DEFAULT_MAX_PERIOD)
    p.add_argument("--json", nargs="?", const="-", default=None)
    _add_common(p)
    _add_rho(p)
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("verify", help="run the acceptance suite",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--out", default="verify-out", help="directory for data outputs")
    p.add_argument("--criteria", default=None, help="comma-separated criterion ids to run")
    p.set_defaults(handler=_cmd_verify)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RangeError as exc:
        print(f"range error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
