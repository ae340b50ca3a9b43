"""Desk-scale experiments on digit statistics, k-kernels, 3-smooth orderings,
and prefix densities, with an expression-driven CLI."""

from .digits import INT_LIMIT, Word, concat, expand, expand_padded, value
from .errors import CoverageError, ExprError, RangeError
from .seqlib import (
    Sequence,
    compress,
    duplicate,
    leading_ones,
    max_run,
    max_run_recursive,
    max_run_recursive_table,
    periodic,
    seq_leading_prime,
    seq_run_parity,
    seq_sqrt_parity,
    seq_two_three,
    sequence_from_file,
    shift,
)
from .smooth import (
    GapPair,
    KroneckerGaps,
    RatioProfile,
    SmoothEntry,
    SmoothTable,
    enumerate_smooth,
    kronecker_gap,
    ratio_profile,
)
from .density import (
    Checkpoints,
    DiscrepancyProfile,
    UnionDensityResult,
    Verdict,
    VerdictPolicy,
    density_estimate,
    discrepancy_profile,
    sequence_values,
    union_density_experiment,
    verdict,
)
from .kernel import (
    KernelClass,
    KernelQuotient,
    LabelViolation,
    check_labeling_consistency,
    cluster_kernel,
    enumerate_kernel,
    label_word,
    quotient_to_json,
)
from .cobham import (
    CobhamReport,
    PeriodicFit,
    ShiftProfile,
    cobham_report,
    multiplicatively_independent,
    periodic_fit,
    periodic_fit_sweep,
    shift_invariance,
)

__version__ = "0.1.0"
