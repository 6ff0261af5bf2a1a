"""rapidbnb: a pure-integer branch-and-bound solver that embeds a
conflict-learning CP probe for bounds, constraints, and solutions."""

from .conflict import BoundDisjunction, analyze_1uip, to_knapsack
from .cpsearch import (CpConfig, CpOutcome, CpStatus, cp_search,
                       node_limit_from_iters, pseudo_solution)
from .lp import LpResult, LpStatus, measure_degeneracy, solve_lp
from .mipsearch import (ConfigError, MipConfig, SearchStats, SolveError,
                        SolveResult, solve)
from .model import (BoundBox, EmptyBoxError, Instance, ModelError, Row,
                    Side, from_inequalities)
from .mps import MpsParseError, ParseDiagnostics, parse_mps, write_mps
from .propagation import Propagator
from .rapid import RapidConfig, evaluate_criteria, is_rl_depth, maybe_run

__version__ = "0.1.0"

__all__ = [
    "BoundBox", "BoundDisjunction", "ConfigError", "CpConfig", "CpOutcome",
    "CpStatus", "EmptyBoxError", "Instance", "LpResult", "LpStatus",
    "MipConfig", "ModelError", "MpsParseError", "ParseDiagnostics",
    "Propagator", "RapidConfig", "Row", "SearchStats", "Side", "SolveError",
    "SolveResult", "analyze_1uip", "cp_search", "evaluate_criteria",
    "from_inequalities", "is_rl_depth", "maybe_run", "measure_degeneracy",
    "node_limit_from_iters", "parse_mps", "pseudo_solution", "solve",
    "solve_lp", "to_knapsack", "write_mps", "__version__",
]
