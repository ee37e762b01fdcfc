"""Optimization-based atomistic-to-continuum coupling for a 1D chain.

A chain with linearized first/second-neighbor interactions is split into
an atomistic window, a continuum (Cauchy-Born) window, and an overlap.
The two submodels are joined by minimizing their mismatch over the
overlap with respect to virtual Dirichlet controls on the artificial
interfaces.  See :mod:`atcopt.coupling` for the solver pipeline and
:mod:`atcopt.analysis` for the verification instruments.
"""

from .lattice import (
    AssumptionReport,
    ChainModel,
    Decomposition,
    DisplacementField,
    OuterBoundary,
    build_chain,
    decompose,
    load_config,
    materialize_force,
    parse_config_text,
    validate_assumptions,
)
from .operators import (
    BandedSystem,
    assemble_atomistic,
    assemble_continuum,
    operator_identity_report,
)
from .solvers import (
    FactorizationError,
    ModelingErrorReport,
    ResidualError,
    SolveReport,
    SolverError,
    modeling_error_bound,
    solve_banded,
    solve_full_atomistic,
    solve_full_continuum,
    solve_atomistic_subproblem,
    solve_continuum_subproblem,
)
from .coupling import (
    AtcResult,
    ControlPair,
    CouplingError,
    ReducedSystem,
    assemble_reduced_system,
    compose_atc,
    lift_atomistic,
    lift_continuum,
    mismatch_norm,
    solve_atc,
    solve_atc_consistent,
    solve_controls,
    trace,
)
from .analysis import (
    ModeCoefficients,
    PatchTestReport,
    StudyRow,
    SweepConfig,
    alpha_coefficients,
    characteristic_roots,
    convergence_sweep,
    error_study,
    estimate_q_norm,
    mode_decomposition,
    overlap_quadratic_form,
    patch_test,
    verify_stability,
)

__version__ = "0.1.0"
