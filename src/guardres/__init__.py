"""Stable models of normal logic programs via guarded unit resolution.

The package reads ground normal programs (`head :- a, not b.`), derives
per-atom supports by guarded resolution, characterizes stable models
through defining equations and candidate theories over an embedded DPLL
solver, and checks everything against the brute-force reduct oracle.
"""

# A star import takes exactly the module's own `__all__`, and importing a
# submodule binds its name here, so the sum below can read each tuple.
from .completion import *
from .core import *
from .guarded import *
from .parse import *
from .sat import *
from .semantics import *
from .solver import *

__version__ = "0.1.0"

__all__ = (completion.__all__ + core.__all__ + guarded.__all__ + parse.__all__
           + sat.__all__ + semantics.__all__ + solver.__all__)
