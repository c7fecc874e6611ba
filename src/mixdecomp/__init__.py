"""Decomposition toolkit for mixing times of finite reversible Markov chains.

Build trace and projected chains from a kernel and a state-space partition,
compute exact mixing/hitting/occupation quantities at desk scale, evaluate
occupation-, drift-, covering- and contraction-based mixing-time bounds,
and validate everything against brute-force and Monte Carlo oracles on a
zoo of benchmark chains.
"""

from .bounds import (
    BoundResult,
    DriftCertificate,
    PeresSousiConstants,
    bound_basic,
    bound_basic2,
    bound_contraction,
    bound_coupling_point,
    bound_drift,
    bound_graph_hit,
    bound_regular,
    calibrate_constants,
    exact_mixing_time,
    fit_drift,
    peres_sousi_audit,
    verify_drift,
)
from .chains import (
    ChainSpec,
    expander_pair,
    kcip,
    pince_nez,
    torus_metropolis,
    toy_kcip,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .contraction import (
    BlockMetric,
    ContractionEstimate,
    estimate_contraction,
    exit_distribution,
    occupation_regularity,
    wasserstein,
)
from .decomposition import (
    AvgHitResult,
    DecompositionReport,
    EscapeStatistics,
    Partition,
    avg_hit_time,
    decompose,
    escape_analysis,
    less_lazy_projection,
    projected_kernel,
    trace_kernel,
)
from .kernel import (
    HittingTimeTable,
    MixingProfile,
    StationaryDistribution,
    StochasticKernel,
    check_reversible,
    hitting_analysis,
    lazify,
    mixing_profile,
    relaxation_time,
    stationary_distribution,
    time_reversal,
)
from .simulate import OccupationRecord, simulate
from .tails import ExactTailProvider, MCTailProvider, MinMarginalJointTails
from .wellcovering import (
    WellCoveringCertificate,
    WellCoveringQuery,
    bootstrap_mixing_bound,
    compare_wc,
    concentration_audit,
    feasibility_oracle,
    propagation_bound,
    propagation_covers,
    tree_bound,
)

__version__ = "0.1.0"
