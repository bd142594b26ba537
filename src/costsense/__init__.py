"""Sensitivity analysis for treatment effects on censored medical costs.

The package fits log-link Gamma models to inverse-probability-weighted
cost data, then asks how an unmeasured confounder of a given family and
strength would move the treatment effect. Closed-form corrections use
the confounder's moment generating function per arm; Monte Carlo tools
quantify when the correction holds and when conditional dependence on
measured covariates erodes it.
"""

from .censoring import (
    cost_design,
    fit_censored_cost,
    fit_cost,
    ipw_weights,
    km_censoring_survival,
)
from .data import CostDataset, load_dataset, save_dataset, zero_cost_shift
from .diagnostics import (
    WITHIN_STRATUM_THRESHOLD,
    CorrelationReport,
    correlation_report,
    loo_correlation_report,
)
from .errors import (
    ConfigError,
    CorrelationModelError,
    CostOverflowError,
    CostSenseError,
    DidNotConvergeError,
    EmptyDatasetError,
    EmptyFitError,
    EstimationError,
    InputNotFoundError,
    MgfDomainError,
    NoPositiveCostError,
    ParseError,
    SchemaError,
    SeparationError,
    SingularDesignError,
    UsageError,
    ZeroProbabilityError,
)
from .glm import Family, FitResult, irls_fit
from .sensitivity import (
    AdjustedEffect,
    ApparentEffect,
    BernoulliParams,
    ConfounderFamily,
    ConfounderModel,
    GAMMA_RATIO_CONVENTION,
    GammaParams,
    NormalParams,
    PoissonParams,
    SweepRow,
    adjust_effect,
    gamma_arms_from_mean_ratio,
    log_mgf,
    sweep,
    z_quantile,
)
from .simulation import (
    CDScenario,
    CIScenario,
    PropensityScenario,
    ReplicationRecord,
    SimulationResult,
    aggregate,
    generate_ci_dataset,
    run_replication,
    run_replications,
    synthetic_cohort,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustedEffect",
    "ApparentEffect",
    "BernoulliParams",
    "CDScenario",
    "CIScenario",
    "ConfigError",
    "ConfounderFamily",
    "ConfounderModel",
    "CorrelationModelError",
    "CorrelationReport",
    "CostDataset",
    "CostOverflowError",
    "CostSenseError",
    "DidNotConvergeError",
    "EmptyDatasetError",
    "EmptyFitError",
    "EstimationError",
    "Family",
    "FitResult",
    "GAMMA_RATIO_CONVENTION",
    "GammaParams",
    "InputNotFoundError",
    "MgfDomainError",
    "NoPositiveCostError",
    "NormalParams",
    "ParseError",
    "PoissonParams",
    "PropensityScenario",
    "ReplicationRecord",
    "SchemaError",
    "SeparationError",
    "SimulationResult",
    "SingularDesignError",
    "SweepRow",
    "UsageError",
    "WITHIN_STRATUM_THRESHOLD",
    "ZeroProbabilityError",
    "adjust_effect",
    "aggregate",
    "correlation_report",
    "cost_design",
    "fit_censored_cost",
    "fit_cost",
    "gamma_arms_from_mean_ratio",
    "generate_ci_dataset",
    "ipw_weights",
    "irls_fit",
    "km_censoring_survival",
    "load_dataset",
    "log_mgf",
    "loo_correlation_report",
    "run_replication",
    "run_replications",
    "save_dataset",
    "sweep",
    "synthetic_cohort",
    "z_quantile",
    "zero_cost_shift",
]
