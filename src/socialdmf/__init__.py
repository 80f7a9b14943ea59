"""Trust-aware dynamic matrix factorization via matrix-free trajectory smoothing.

Per-bin static factorizations seed a batch smoother that estimates one
velocity/position factor pair per user and time bin, coupling bins through a
constant-velocity prior and, optionally, users through their trust graph.
"""

from .domain import (
    FactorPair,
    FactorTimeline,
    NumericalError,
    RatingsTimeline,
    SmootherConfig,
    SmootherState,
    TrustTimeline,
)
from .experiment import (
    SWEEP_KS,
    SWEEP_LAMBDAS,
    ExperimentResult,
    SynthTruth,
    check_gradient,
    evaluate_rmse,
    random_problem,
    run_dynamic,
    run_static,
    sweep,
    synth_generate,
    write_results_csv,
)
from .factorize import (
    align_factor_pair,
    factorize_bin,
    init_timeline,
    load_factors,
    save_factors,
)
from .ingest import (
    DataFormatError,
    SplitTimeline,
    bin_timelines,
    filter_min_ratings,
    load_dataset,
    merge_split,
    parse_ratings,
    parse_trust,
    save_dataset,
    split_train_test,
)
from .laplacian import (
    LaplacianOperator,
    apply_laplacian,
    build_timeline_laplacians,
    laplacian_quadratic,
)
from .optim import MinimizeResult, finite_diff_check, lbfgs_minimize, write_trace
from .smoother import (
    SmootherProblem,
    apply_measurement,
    apply_measurement_adjoint,
    apply_process,
    apply_process_adjoint,
    apply_qinv,
    objective_and_gradient,
    objective_terms,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentResult",
    "DataFormatError",
    "FactorPair",
    "FactorTimeline",
    "LaplacianOperator",
    "MinimizeResult",
    "NumericalError",
    "RatingsTimeline",
    "SmootherConfig",
    "SmootherProblem",
    "SmootherState",
    "SplitTimeline",
    "SWEEP_KS",
    "SWEEP_LAMBDAS",
    "SynthTruth",
    "TrustTimeline",
    "align_factor_pair",
    "apply_laplacian",
    "apply_measurement",
    "apply_measurement_adjoint",
    "apply_process",
    "apply_process_adjoint",
    "apply_qinv",
    "bin_timelines",
    "build_timeline_laplacians",
    "check_gradient",
    "evaluate_rmse",
    "factorize_bin",
    "filter_min_ratings",
    "finite_diff_check",
    "init_timeline",
    "laplacian_quadratic",
    "lbfgs_minimize",
    "load_dataset",
    "load_factors",
    "merge_split",
    "objective_and_gradient",
    "objective_terms",
    "parse_ratings",
    "parse_trust",
    "random_problem",
    "run_dynamic",
    "run_static",
    "save_dataset",
    "save_factors",
    "split_train_test",
    "sweep",
    "synth_generate",
    "write_results_csv",
    "write_trace",
]
