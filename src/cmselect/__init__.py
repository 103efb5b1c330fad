"""Moment-inequality testing with generalized and constrained moment selection.

The package tests whether finitely many moment inequalities hold at a fixed
parameter value. It evaluates the sum-of-violations and quadratic-form
statistics, simulates selection-based critical values (asymptotic normal or
bootstrap), and includes an empirical-likelihood tilting step that sharpens
the selection. A two-step rectangle-based procedure and a table-driven
refined-selection hook serve as benchmarks, and a Monte Carlo harness
reproduces size and local-power experiments.
"""

from .critical import (
    AsymptoticDraws,
    BootstrapDraws,
    CriticalValueReport,
    RmsTables,
    TestDecision,
    bootstrap_counts,
    run_test,
    upper_quantile,
)
from .errors import (
    CmselectError,
    CsvFormatError,
    DegenerateColumn,
    DomainError,
    MissingBaseline,
    MissingTable,
    NoConvergence,
    NotPositiveDefinite,
    QPNoConvergence,
    SingularCovariance,
    TooManyDegenerate,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    corrections_from,
    emit,
    mnrp_correction,
    null_patterns,
    run_mnrp,
    run_power,
    simulate_sample,
)
from .moments import (
    CorrelationFamily,
    MomentSample,
    MomentSummary,
    load_csv,
    make_toeplitz,
    summarize,
)
from .selection import (
    KappaSchedule,
    SelectionVector,
    kappa,
    phi1,
    phi2,
    phi3,
    phi4,
    phi_k,
)
from .statistics import StatisticKind, evaluate
from .tilt import TiltResult, tilt

__version__ = "0.1.0"
