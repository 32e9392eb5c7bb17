"""Heat-kernel diffusion on graphs with certified Chebyshev truncation.

The package computes ``exp(-tau * L) x`` for sparse graph Laplacians by
a three-term Chebyshev recurrence whose order is chosen a priori from a
certified error bound, and streams each recurrence vector into every
diffusion scale at once, so m scales share one recurrence and no basis
is stored.
"""

from .bounds import BoundKind, energy_ratio, min_order, true_min_order
from .diffusion import expm_multiply, expm_multiscale, measure_errors
from .errors import ConvergenceError, NumericalError, OrderCapError, ParseError
from .graphs import build_laplacian, erdos_renyi, load_graph, save_edge_list

__version__ = "0.1.0"

__all__ = [
    "build_laplacian", "erdos_renyi", "load_graph", "save_edge_list",
    "expm_multiply", "expm_multiscale", "measure_errors",
    "BoundKind", "energy_ratio", "min_order", "true_min_order",
    "ConvergenceError", "NumericalError", "OrderCapError", "ParseError",
    "__version__",
]
