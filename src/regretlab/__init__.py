"""regretlab: no-regret bidding dynamics in repeated auction games.

The package simulates populations of learning bidders matched into
single-shot auctions, certifies welfare guarantees of the underlying
mechanisms via deviation-based smoothness checks, and cross-validates the
simulated play against exact equilibrium computations on the induced
agent-form game.
"""

__version__ = "0.1.0"

import importlib

from .errors import (
    CapExceededError,
    ConfigError,
    ContractViolationError,
    InputError,
    RegretLabError,
    SolverError,
    UndefinedResultError,
)

_SUBMODULES = ("analysis", "exact", "learners", "mechanisms", "simulator", "smoothness")

__all__ = [
    *_SUBMODULES,
    "CapExceededError",
    "ConfigError",
    "ContractViolationError",
    "InputError",
    "RegretLabError",
    "SolverError",
    "UndefinedResultError",
]


def __getattr__(name: str):
    """Import a submodule on first access (PEP 562), so that a command loads
    only the modules it runs."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
