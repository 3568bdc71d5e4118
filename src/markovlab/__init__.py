"""Exact numerical laboratory for small open quantum systems.

Simulates a finite system coupled to a finite environment with dense
exact evolution, solves the memory-kernel equations of a flat/resonant
spectral-density model, and measures operational signatures of
memoryless (Markovian) behaviour: divisibility of the reduced dynamical
map, distinguishability decay, entropy-rate bounds and the time-local
structure of the master equation.
"""

from markovlab.linalg import (
    MAX_COMPOSITE_DIM,
    PositivityError,
    partial_trace_env,
    partial_trace_sys,
    tensor_product,
    trace_distance,
    validate_density_matrix,
    von_neumann_entropy,
)
from markovlab.spectral import (
    AmplitudePhase,
    BranchSingularityError,
    GreenProblem,
    GreenSolution,
    SpectralDensity,
    StepSizeError,
    StepSizeWarning,
    TimeGrid,
    amplitude_phase,
    analytic_green1_lorentzian,
    analytic_green_const,
    kernel_on_grid,
    solve_green,
)
from markovlab.dynamics import (
    CompositeSpec,
    EntropyReport,
    InitialState,
    MarkovDiagnostics,
    WitnessResult,
    distinguishability_witness,
    divisibility_defect,
    divisibility_defects,
    entangled_divisibility,
    entropy_sie_check,
    environment_stationarity,
    supermatrix,
)
from markovlab.master import (
    BlockMixture,
    CommutatorForm,
    MixedInvariance,
    PreconditionError,
    SufficientConditions,
    classify_sufficient_conditions,
    commuting_block_evolution,
    commutator_residuals,
    effective_commutator_rhs,
    exact_rho_dot,
    maximally_mixed_invariance,
)
from markovlab.sampling import (
    random_amplitudes,
    random_env_weights,
    random_hermitian,
    random_product_spec,
)
from markovlab.config import (
    ConfigError,
    ScenarioConfig,
    parse_config,
)
from markovlab.scenarios import run_scenario

__version__ = "0.1.0"
