"""Stable matching under multilayer approval preferences.

Modeling, stability checking for the eleven weak/strong/super multilayer
notions, exact solvers with an exhaustive fallback oracle, and hardness
constructions reused as instance generators.

Importing the package loads the checker only.  The search stack (``oracle``,
``solvers`` and the ``graphalg`` they use) loads when one of its names is
first read, so ``mlsm check`` does not compile it.
"""

import importlib
import sys

from .blocking import Matching
from .model import (
    MultilayerInstance,
    agent_types,
    build_instance,
    changing_agents,
    is_symmetric,
)
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


def _lazy_attrs(owner: str, table: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) for ``owner`` that reads each name
    of ``table`` from its defining module, importing that module on a miss.

    Every access returns the defining module's current attribute, and
    nothing is stored in the owner's globals: a name rebound there (a
    monkeypatch, a tracing wrapper) is seen at the next read, and no stale
    copy outlives its undoing.
    """
    modules = sys.modules

    def __getattr__(name: str):
        try:
            target = table[name]
        except KeyError:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}") from None
        module = modules.get(target) or importlib.import_module(target)
        return getattr(module, name)

    return __getattr__


__getattr__ = _lazy_attrs(
    __name__,
    {
        "OracleBudget": "mlsm.oracle",
        "enumerate_matchings": "mlsm.oracle",
        "oracle_all": "mlsm.oracle",
        "oracle_solve": "mlsm.oracle",
        "SolveResult": "mlsm.solvers",
        "dispatch": "mlsm.solvers",
    },
)
