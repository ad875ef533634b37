"""Exact decision procedures, shortcut conditions, and closed-form witness
constructions for graphs that admit both a half-size cut and a half-size
induced subgraph, plus a balanced-Ramsey brute forcer and a max-cut to
exact-cut reducer."""

from . import conditions, families, graphs, oracle, ramsey, reduction, witnesses
from .conditions import *  # noqa: F403
from .families import *  # noqa: F403
from .graphs import *  # noqa: F403
from .oracle import *  # noqa: F403
from .ramsey import *  # noqa: F403
from .reduction import *  # noqa: F403
from .witnesses import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (conditions, families, graphs, oracle, ramsey, reduction, witnesses)
    for name in module.__all__
]
