"""Heat-kernel diffusion on graphs with certified Chebyshev truncation.

The package computes ``exp(-tau * L) x`` for sparse graph Laplacians by
a three-term Chebyshev recurrence whose order is chosen a priori from a
certified error bound, and streams each recurrence vector into every
diffusion scale at once, so m scales share one recurrence and no basis
is stored.

Each module has one job, and imports only the modules before it:
:mod:`~chebheat.graphs` (operators, signals and files),
:mod:`~chebheat.bessel` and :mod:`~chebheat.errors`;
:mod:`~chebheat.chebyshev` (the coefficients and the recurrence);
:mod:`~chebheat.oracle` (the operator's spectrum: the value a run
rescales by, the dense eigendecomposition and the measurements against
it); :mod:`~chebheat.bounds` (the certificates and the order search);
:mod:`~chebheat.diffusion` (plans and runs); :mod:`~chebheat.cli`.
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
