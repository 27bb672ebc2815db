"""qcalab: simulation and structural verification workbench for block
cellular automata on quantum state spaces."""

from .operators import support_of

__version__ = "0.1.0"
