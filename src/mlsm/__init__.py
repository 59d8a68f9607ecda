"""Stable matching under multilayer approval preferences.

Modeling, stability checking for the eleven weak/strong/super multilayer
notions, exact solvers with an exhaustive fallback oracle, and hardness
constructions reused as instance generators.
"""

from .blocking import Matching
from .model import (
    MultilayerInstance,
    agent_types,
    build_instance,
    changing_agents,
    is_symmetric,
)
from .oracle import OracleBudget, enumerate_matchings, oracle_all, oracle_solve
from .solvers import SolveResult, dispatch
from .verify import StabilityQuery, Verdict, check

__version__ = "0.1.0"

__all__ = [
    "Matching",
    "MultilayerInstance",
    "OracleBudget",
    "SolveResult",
    "StabilityQuery",
    "Verdict",
    "agent_types",
    "build_instance",
    "changing_agents",
    "check",
    "dispatch",
    "enumerate_matchings",
    "is_symmetric",
    "oracle_all",
    "oracle_solve",
]
