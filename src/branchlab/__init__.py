"""Moment identities and scaling limits of finite-type critical branching
processes: exact k-point moments by independent routes, continuum limit
formulas, and convergence checks tying the two together."""

from .trees import (
    PlanarTree,
    TreeShape,
    decode_heights,
    encode_heights,
    distance_matrix,
)
from .process import Model, MarkedTree, Eigenpair, eigenpair, sigma_squared
from .spine import SpineKernel, build_kernel
from .moments import (
    MomentQuery,
    moment_bruteforce,
    moment_m2f,
    moment_recursive,
    rescaled_moment,
    ultrametric_moment,
)
from .mmm import FiniteMmmSpace, monomial
from .limits import (
    LimitQuery,
    crt_moment,
    cpp_moment,
    convergence_report,
)

__version__ = "0.1.0"

__all__ = [
    "PlanarTree",
    "TreeShape",
    "decode_heights",
    "encode_heights",
    "distance_matrix",
    "Model",
    "MarkedTree",
    "Eigenpair",
    "eigenpair",
    "sigma_squared",
    "SpineKernel",
    "build_kernel",
    "MomentQuery",
    "moment_bruteforce",
    "moment_m2f",
    "moment_recursive",
    "rescaled_moment",
    "ultrametric_moment",
    "FiniteMmmSpace",
    "monomial",
    "LimitQuery",
    "crt_moment",
    "cpp_moment",
    "convergence_report",
    "__version__",
]
