"""Spans around the calls into asymauto's public functions, installed at run time.

Nothing under src/ knows about this file.  `Tracer.install` replaces module
attributes with wrappers that record a span (name, start, end, parent) and the
counts read off the call's arguments or result, and `Tracer.remove` puts the
originals back.  Spans stay in memory until the run ends.  The tracer assumes
one thread: with ASYMAUTO_THREADS above 1 the scan chunks run in a pool and
their spans would not nest.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 at top level
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_time


def _no_counts(args, result):
    return {}


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, counts: dict) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        span.counts = counts
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.seconds

    def wrap(self, fn, name: str, counter=_no_counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            counts = {}
            try:
                result = fn(*args, **kwargs)
                counts = counter(args, result)
                return result
            finally:
                self.close(index, counts)

        return traced

    def patch(self, owner, attr: str, name: str, counter=_no_counts) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, counter))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self, prog) -> None:
        """Wrap every layer boundary the workloads cross (see README.md)."""
        cli, seqlib, density, kernel, cobham, smooth = (
            prog.cli, prog.seqlib, prog.density, prog.kernel, prog.cobham, prog.smooth)
        self.patch(cli, "build_parser", "cli.parser")
        self.patch(cli, "parse_expr", "cli.parse")
        self.patch(cli.SequenceBuilder, "build", "cli.build")
        self.patch(smooth, "enumerate_smooth", "smooth.table",
                   lambda a, r: {"entries": len(r)})
        self.patch(seqlib.Sequence, "values", "seqlib.values",
                   lambda a, r: {"values": len(r)})
        self.patch(cli, "sequence_from_file", "seqlib.file_load")
        profile_counts = lambda a, r: {"positions": a[2].final}  # noqa: E731
        self.patch(cli, "discrepancy_profile", "density.profile", profile_counts)
        self.patch(cobham, "discrepancy_profile", "density.profile", profile_counts)
        self.patch(density, "union_density_experiment", "density.union", _union_counts)
        self.patch(cobham, "cluster_kernel", "kernel.cluster", _kernel_counts)
        self.patch(kernel, "sequence_values", "kernel.materialize")
        self.patch(kernel, "check_labeling_consistency", "kernel.consistency")
        self.patch(cli, "cobham_report", "cobham.report")
        self.patch(cobham, "shift_invariance", "cobham.shift")
        self.patch(cobham, "periodic_fit_sweep", "cobham.fit_sweep",
                   lambda a, r: {"fits": len(r)})


def span_cost(calls: int = 20000, samples: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus the bare no-op."""
    tracer = Tracer()

    def noop(x):
        return x

    wrapped = tracer.wrap(noop, "calibration")
    costs = []
    for _ in range(samples):
        t0 = perf_counter()
        for i in range(calls):
            noop(i)
        t1 = perf_counter()
        for i in range(calls):
            wrapped(i)
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
        tracer.spans.clear()
    return statistics.median(costs)


def _union_counts(args, result) -> dict:
    """Bits scanned and intervals marked, computed from the parameters."""
    k, m, delta, gamma, nu = args[:5]
    total = k**nu
    intervals = 0
    for a in range(gamma):
        if a - delta > delta and total > k**delta:
            intervals += -(-(total - k**delta) // (m * k**a))
    return {"bits": total, "intervals": intervals}


def _kernel_counts(args, result) -> dict:
    """Elements, pairwise positions compared and bytes materialised, computed."""
    f, k, depth, cps = args[:4]
    d = sum(k**a for a in range(depth + 1))
    n = cps.final
    return {"elements": d, "pair_compares": d * (d - 1) // 2 * n, "bytes": k**depth * n}


def layer_metrics(spans: list) -> dict:
    """Per-layer figures of one round's spans (times in seconds, see README.md)."""

    def total(name, attr="seconds"):
        return sum(getattr(s, attr) for s in spans if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def under(span, name):
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name == name:
                return True
        return False

    outer_values = [s for s in spans if s.name == "seqlib.values"
                    and (s.parent < 0 or spans[s.parent].name != "seqlib.values")]
    values_s = total("seqlib.values", "self_seconds")
    values_n = sum(s.counts.get("values", 0) for s in outer_values)
    trips_s = total("digits.round_trip", "self_seconds")
    trips_n = count("digits.round_trip", "calls")
    return {
        "cli.build_s": sum(total(n, "self_seconds") for n in ("cli.parser", "cli.parse", "cli.build")),
        "smooth.table_s": total("smooth.table"),
        "smooth.entries_n": count("smooth.table", "entries"),
        "seqlib.values_s": values_s,
        "seqlib.values_n": values_n,
        "seqlib.values_per_s": values_n / values_s if values_s else 0.0,
        "seqlib.file_load_s": total("seqlib.file_load"),
        "density.profile_s": total("density.profile", "self_seconds"),
        "density.positions_n": count("density.profile", "positions"),
        "density.union_s": total("density.union", "self_seconds"),
        "density.union_bits": count("density.union", "bits"),
        "density.union_intervals_n": count("density.union", "intervals"),
        "kernel.cluster_s": total("kernel.cluster"),
        "kernel.materialize_s": total("kernel.materialize"),
        "kernel.compare_s": total("kernel.cluster", "self_seconds"),
        "kernel.elements_n": count("kernel.cluster", "elements"),
        "kernel.pair_compares_n": count("kernel.cluster", "pair_compares"),
        "kernel.bytes_materialized": count("kernel.cluster", "bytes"),
        "kernel.consistency_s": total("kernel.consistency", "self_seconds"),
        "cobham.report_s": total("cobham.report"),
        "cobham.shift_s": total("cobham.shift"),
        "cobham.shift_values_n": sum(s.counts.get("values", 0) for s in outer_values
                                     if under(s, "cobham.shift")),
        "cobham.fit_sweep_s": total("cobham.fit_sweep"),
        "cobham.fits_n": count("cobham.fit_sweep", "fits"),
        "digits.round_trip_s": trips_s,
        "digits.round_trips_n": trips_n,
        "digits.round_trips_per_s": trips_n / trips_s if trips_s else 0.0,
    }
