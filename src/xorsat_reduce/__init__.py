"""Exact solvers for occupation problems built on a GF(2) parity reduction."""

from .errors import GenerationError, GuardExceeded, ParseError
from .gf2 import StandardForm
from .grover import (
    OracleSpec,
    ResourceReport,
    grover_search_known,
    grover_search_unknown,
    oracle_resources,
    query_cost_count,
    query_cost_decision,
)
from .hamcycle import (
    Graph,
    hc_to_occupation,
    is_hamiltonian_cycle,
    solve_hc,
)
from .instances import (
    Clause,
    Instance,
    Literal,
    emit_instance,
    eval_clause,
    eval_instance,
    gen_locked_random,
    parse_instance,
)
from .reduction import (
    LinearSystem,
    Reduction,
    XorInfeasible,
    build_linear_system,
    expand_index,
    kernel_excess,
    reduce_instance,
)
from .solvers import (
    SolveOutcome,
    TreeStats,
    backtrack_count,
    backtrack_solve,
    count_enumerate,
    gamma_estimate,
    optimize_permutation,
    solve_enumerate,
)

__version__ = "0.1.0"

__all__ = [
    "Clause",
    "GenerationError",
    "Graph",
    "GuardExceeded",
    "Instance",
    "LinearSystem",
    "Literal",
    "OracleSpec",
    "ParseError",
    "Reduction",
    "ResourceReport",
    "SolveOutcome",
    "StandardForm",
    "TreeStats",
    "XorInfeasible",
    "backtrack_count",
    "backtrack_solve",
    "build_linear_system",
    "count_enumerate",
    "emit_instance",
    "eval_clause",
    "eval_instance",
    "expand_index",
    "gamma_estimate",
    "gen_locked_random",
    "grover_search_known",
    "grover_search_unknown",
    "hc_to_occupation",
    "is_hamiltonian_cycle",
    "kernel_excess",
    "optimize_permutation",
    "oracle_resources",
    "parse_instance",
    "query_cost_count",
    "query_cost_decision",
    "reduce_instance",
    "solve_enumerate",
    "solve_hc",
]
