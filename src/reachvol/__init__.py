"""Volumes of bounded-input reachable and controllable regions.

For a linear discrete-time system x_{k+1} = A x_k + B u_k with
||u_k||_inf <= 1, the set of states reachable in N steps is a zonotope.
This package computes its volume three independent ways -- an exact
combinatorial determinant sum, an O(N) recursion over deleted-eigenvalue
subsequences, and a closed-form eigenvalue-subset expansion whose cost
does not depend on N -- and deconstructs the closed form into control
capability factors.  Generalizations cover narrow controllable (recovery)
regions, all-negative spectra, infinite horizons, and continuous time.
"""

from .zonotope import determinant_count, symmetric_volume
from .model import (
    EigenStructure,
    SingularFactorError,
    SpectrumError,
    StateSpaceModel,
    UnboundedRegionError,
    VolumeDomainError,
    diagonalize,
    narrow_generators,
    reachability_generators,
)
from .analytic import (
    analytic_volume_sum,
    analytic_volume_terms,
    full_volume,
    infinite_volume_sum,
    recursive_volume_sum,
)
from .factors import build_factor_report
from .extensions import (
    ContinuousModel,
    ct_discretized_oracle,
    ct_volume_analytic,
    narrow_via_relation,
    narrow_volume_analytic,
    negative_spectrum_volume,
    volume,
)

__version__ = "0.1.0"

# The names the demos and the README use, the exceptions, and volume();
# everything else is imported from its submodule.
__all__ = [
    "ContinuousModel",
    "EigenStructure",
    "SingularFactorError",
    "SpectrumError",
    "StateSpaceModel",
    "UnboundedRegionError",
    "VolumeDomainError",
    "analytic_volume_sum",
    "analytic_volume_terms",
    "build_factor_report",
    "ct_discretized_oracle",
    "ct_volume_analytic",
    "determinant_count",
    "diagonalize",
    "full_volume",
    "infinite_volume_sum",
    "narrow_generators",
    "narrow_via_relation",
    "narrow_volume_analytic",
    "negative_spectrum_volume",
    "reachability_generators",
    "recursive_volume_sum",
    "symmetric_volume",
    "volume",
]
