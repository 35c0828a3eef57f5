"""Second-order line-search methods for smooth nonconvex minimization."""

from .bounds import (
    ComplexityEnvelope,
    DecreaseConstants,
    decrease_constants,
    iteration_envelope,
    tolerance_max_term,
)
from .cgsolve import CgCapError, CgOutcome, cg_capped, cg_iteration_cap, solve_exact
from .driver import (
    Certificate,
    IterationRecord,
    RunReport,
    run_exact,
    run_inexact,
)
from .eigen import EigEstimate, lanczos_iteration_cap, lanczos_min_eig, min_eigenpair_exact
from .linesearch import (
    LineSearchResult,
    LineSearchStallError,
    backtrack,
    theoretical_ls_cap,
)
from .operators import (
    EvalCounters,
    NonFiniteError,
    Objective,
    ProblemConstants,
    rayleigh_quotient,
)
from .problems import SuiteProblem, get_problem, problem_names, suite
from .steps import (
    ConfigError,
    Direction,
    IndefiniteSystemError,
    SolverConfig,
    StepKind,
    Terminate,
    check_termination,
    scale_eigvector,
    select_direction_exact,
    select_direction_inexact,
)

__version__ = "0.1.0"

__all__ = [
    "CgCapError",
    "CgOutcome",
    "Certificate",
    "ComplexityEnvelope",
    "ConfigError",
    "DecreaseConstants",
    "Direction",
    "EigEstimate",
    "EvalCounters",
    "IndefiniteSystemError",
    "IterationRecord",
    "LineSearchResult",
    "LineSearchStallError",
    "NonFiniteError",
    "Objective",
    "ProblemConstants",
    "RunReport",
    "SolverConfig",
    "StepKind",
    "SuiteProblem",
    "Terminate",
    "backtrack",
    "cg_capped",
    "cg_iteration_cap",
    "check_termination",
    "decrease_constants",
    "get_problem",
    "iteration_envelope",
    "lanczos_iteration_cap",
    "lanczos_min_eig",
    "min_eigenpair_exact",
    "problem_names",
    "rayleigh_quotient",
    "run_exact",
    "run_inexact",
    "scale_eigvector",
    "select_direction_exact",
    "select_direction_inexact",
    "solve_exact",
    "suite",
    "theoretical_ls_cap",
    "tolerance_max_term",
]
