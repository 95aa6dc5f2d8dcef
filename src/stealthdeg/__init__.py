"""Stealth-attack degradation analysis for DC state estimation.

Builds grid models from MATPOWER-style case files, quantifies the
stealthiness (KL divergence) and destructiveness (mutual information) of
Gaussian data-injection attacks constructed under incomplete branch
admittance information, classifies the degradation regime, and searches for
the incompleteness profile that maximally degrades attack stealth.
"""

from .attack_engine import IncompletenessSpec, mtd_admittance
from .case_ingest import BranchRecord, GridCase, load_case, parse_case
from .degradation_opt import (
    ObjectiveEvaluator,
    OptimizationResult,
    exhaustive_maximize,
    greedy_maximize,
    maximize_with_oracle,
    vertex_profiles,
)
from .errors import (
    CaseSyntaxError,
    SingularityError,
    StealthdegError,
    ValidationError,
)
from .experiment_harness import (
    TrialRecord,
    alpha_montecarlo,
    beta_sweep,
    k_sweep,
    sample_bounds,
)
from .grid_model import (
    GridModel,
    build_model,
    check_connectivity_and_rank,
    incidence_matrix,
    jacobian,
    susceptance_diag,
)
from .regime_analysis import (
    RegimeLabel,
    classify_delta,
    classify_uniform_ratio,
    definiteness_conditions,
)
from .stochastics import (
    ScenarioStats,
    build_scenario,
    noise_variance,
    toeplitz_cov,
)

__version__ = "0.1.0"
