"""Rate analysis for interference-limited links with multi-branch MMSE receivers.

Submodules: pointproc (network geometry and activation models), mmse
(receiver kernel), asymptotics (closed forms and fixed points), montecarlo
(seeded replication engine), cli (batch front end).
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticParams,
    AsymptoticSolution,
    NoBracket,
    beta_large_c,
    cell_edge_rate,
    fixed_point_oracle,
    gauss_2f1,
    lambert_w0,
    limiting_edf,
    optimal_reuse,
    rate_approx,
    solve_beta_fixed_point,
)
from .mmse import (
    FadingSet,
    SingularCovariance,
    SirSample,
    draw_fading,
    interference_covariance,
    mmse_sir,
)
from .montecarlo import (
    ExperimentReport,
    ExperimentSpec,
    RealizationFailed,
    StatSummary,
    density_estimate,
    derive_seed,
    run_experiment,
    run_realization,
    summarize,
)
from .pointproc import (
    ModelSpec,
    NetworkConfig,
    Realization,
    realization_to_csv,
    realize,
)

__all__ = [
    "__version__",
    "AsymptoticParams",
    "AsymptoticSolution",
    "NoBracket",
    "beta_large_c",
    "cell_edge_rate",
    "fixed_point_oracle",
    "gauss_2f1",
    "lambert_w0",
    "limiting_edf",
    "optimal_reuse",
    "rate_approx",
    "solve_beta_fixed_point",
    "FadingSet",
    "SingularCovariance",
    "SirSample",
    "draw_fading",
    "interference_covariance",
    "mmse_sir",
    "ExperimentReport",
    "ExperimentSpec",
    "RealizationFailed",
    "StatSummary",
    "density_estimate",
    "derive_seed",
    "run_experiment",
    "run_realization",
    "summarize",
    "ModelSpec",
    "NetworkConfig",
    "Realization",
    "realization_to_csv",
    "realize",
]
