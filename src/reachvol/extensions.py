"""Narrow controllable regions, all-negative spectra, and continuous time.

Three generalizations of the reachable-region volume expansion:

* the narrow controllable (recovery) region, whose expansion swaps the
  eigenvalue powers for inverse powers;
* systems whose spectrum is entirely negative, where the expansion runs
  over the eigenvalue moduli sorted ascending (the alternating column
  signs of the generator matrix drop out of the absolute determinants, so
  the region volume equals that of the modulus system);
* linear continuous-time systems, where the region is generated by the
  matrix exponential over [0, T], the power factor becomes exp(sum l T),
  and the distribution factor uses pairwise sums and 1/lambda.

The narrow and all-negative closed forms are rows of the one route
function of :mod:`reachvol.analytic`, as :func:`reachvol.analytic.full_volume`
is, and :func:`narrow_via_relation` lives there too.  This module holds
continuous time, one call to the subset-expansion kernel, and
:func:`volume`, the switch over modes that the CLI calls and that refuses
a volume beyond the double range.  Each closed form has an independent
brute-force check through the exact determinant sum: the narrow
generators, the reachability generators, and a left-endpoint Riemann
discretization of the integral region.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analytic import (
    VolumeReport,
    _expansion_report,
    _region_report,
    narrow_via_relation,
)
from .model import (
    EigenStructure,
    SpectrumClass,
    SpectrumError,
    StateSpaceModel,
    VolumeDomainError,
    classify_spectrum,
)
from .zonotope import _NonFiniteGenerators, determinant_count, symmetric_volume

__all__ = [
    "ContinuousModel",
    "volume",
    "narrow_volume_analytic",
    "negative_spectrum_volume",
    "ct_volume_analytic",
    "ct_discretized_oracle",
    "narrow_via_relation",
]

MODES = ("discrete", "narrow", "negative", "continuous")  # the regions volume() answers
ORACLE_MAX_TERMS = 20_000_000  # determinants the Riemann oracle may sum


@dataclass(frozen=True)
class ContinuousModel:
    """Continuous-time pair (A_c, B_c) with a time horizon T.

    The region of interest is the set of states reachable by
    x = integral_0^T exp(A_c t) B_c u(t) dt with |u(t)| <= 1.
    """

    A_c: np.ndarray
    B_c: np.ndarray
    T: float

    def __post_init__(self):
        pair = StateSpaceModel(self.A_c, self.B_c)
        if pair.r != 1:
            raise ValueError(f"B_c must be a single column of length {pair.n}")
        T = float(self.T)
        if not (T >= 0.0 and math.isfinite(T)):
            raise ValueError(f"horizon T must be finite and >= 0, got {T}")
        object.__setattr__(self, "A_c", pair.A)
        object.__setattr__(self, "B_c", pair.B)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "_pair", pair)

    @classmethod
    def from_spectrum(cls, eigenvalues, modal_gains, T):
        eig = EigenStructure.from_spectrum(eigenvalues, modal_gains)
        return cls(np.diag(eig.eigenvalues), eig.modal_gains, T)

    @property
    def n(self):
        return self.A_c.shape[0]

    @property
    def eigen(self):
        """The spectral form of (A_c, B_c), decomposed once per model."""
        return self._pair.eigen

    @cached_property
    def spectrum(self):
        """The continuous-time classification of the spectrum, once per model."""
        return classify_spectrum(self.eigen.eigenvalues, "continuous")


def narrow_volume_analytic(system, N):
    """Volume of the N-step narrow controllable region, closed form.

    Same subset expansion as the reachable region but with inverse
    eigenvalue powers, reflecting that the narrow region is generated by
    A^-N B, ..., A^-1 B.  Requires a strictly positive distinct spectrum
    bounded away from 0 and 1.  The signed normalized sum is reported as
    computed; the volume is its magnitude times the 2^n prefactor.  A flat
    region (N < n) is volume 0, as on every route.
    """
    return _region_report(system, N, "narrow", "analytic")


def negative_spectrum_volume(system, N):
    """Volume of the N-step reachable region for an all-negative spectrum.

    The analytic route of :func:`full_volume` once every eigenvalue is
    negative: the expansion over the moduli sorted ascending, whose
    generators differ from the model's by column signs only.  Subset
    indices in the term breakdown refer to that order.
    """
    return _region_report(system, N, "negative", "analytic")


def ct_volume_analytic(model):
    """Volume of the time-T continuous-time reachable region, closed form.

    Subset expansion with power factor prod exp(lambda T) over the subset
    (each factor in working precision) and the continuous distribution
    factor (absolute pairwise couplings over the pairwise sums,
    per-eigenvalue 1/lambda).  The signed sum's magnitude is reported as
    the volume.  The absolute-value placement in the pairwise factor makes
    the expansion track the integral region exactly when all eigenvalues
    are negative; a warning is attached otherwise.  At T = 0 the region is
    the origin: volume 0, with no terms.
    """
    eig, cls = model.eigen, model.spectrum
    # diagonalize has refused complex and repeated spectra already
    if cls is SpectrumClass.NEAR_SINGULAR_FACTOR:
        raise SpectrumError(cls, "an eigenvalue or a pairwise sum is within "
                                 "tolerance of zero")
    lam = eig.eigenvalues
    if model.T == 0.0:
        # every term is exactly cancelled: no relative precision resolves it
        return VolumeReport(volume=0.0, route="analytic", normalized_sum=0.0, spectrum=cls,
                            warnings=("T = 0: the region is the origin, volume 0",))
    warnings = ()
    if not np.all(lam < 0.0):
        warnings = ("spectrum is not strictly stable; the closed form is "
                    "exact only for all-negative spectra",)
    return _expansion_report(eig, lam, model.T, "continuous", cls, warnings)


def ct_discretized_oracle(model, dt):
    """Brute-force volume of a left-endpoint Riemann cover of the CT region.

    Builds the generators exp(A_c k dt) B_c dt for k = 0 .. ceil(T/dt)-1
    in one broadcast in the modal basis (valid on the real-distinct-spectrum
    domain) and runs the exact determinant sum.  Converges to the
    continuous region volume at first order in dt.

    Raises ValueError when C(K, n) would exceed ORACLE_MAX_TERMS, with
    advice to enlarge dt, and VolumeDomainError when the generators overflow.
    """
    dt = float(dt)
    if not 0.0 < dt < model.T:
        raise ValueError(f"dt must lie in (0, T), got dt={dt}, T={model.T}")
    # ceil of the real quotient: guard against float jitter just above an
    # integer, which would append a spurious generator beyond T
    q = model.T / dt
    K = round(q) if abs(q - round(q)) <= 1e-9 * max(1.0, q) else math.ceil(q)
    n = model.n
    count = determinant_count(K, n) if K >= n else 0
    if count > ORACLE_MAX_TERMS:
        raise ValueError(
            f"C({K},{n}) = {count} determinants exceeds the budget {ORACLE_MAX_TERMS}; "
            f"use a larger dt or a smaller state dimension")
    W = model.eigen.left_vectors
    # column k in modal coordinates: exp(lambda k dt) * (W B_c dt)
    lam = model.eigen.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        Z = np.linalg.solve(W, np.exp(np.outer(lam, np.arange(K) * dt)) * (W @ model.B_c * dt))
    try:
        # a Krylov matrix of exp(A_c dt), whose determinant is exp(dt * trace A_c)
        return symmetric_volume(Z, krylov=(1, math.exp(dt * lam.sum())))
    except _NonFiniteGenerators:
        raise VolumeDomainError(f"the Riemann cover of the T = {model.T} region overflows "
                                f"double precision") from None


def volume(system, horizon, mode="discrete", route="auto", *, dt=None):
    """Volume of one region, by mode and route: the dispatcher behind the CLI.

    Parameters
    ----------
    system : StateSpaceModel or EigenStructure
    horizon : steps N (None: infinite horizon, discrete mode only), or the
        time T in continuous mode
    mode : one of MODES, {"discrete", "narrow", "negative", "continuous"}
        reachable region, narrow controllable region, reachable region of
        an all-negative spectrum, continuous-time reachable region
    route : one of ROUTES, {"auto", "direct", "recursive", "analytic"}

    The discrete-time modes are rows of the route function of
    :mod:`reachvol.analytic`, which decides their horizon, flat region and
    "auto" fallback; "direct" on the infinite horizon is answered as "auto".
    In continuous time "auto" takes the Riemann oracle with step `dt` (the
    "direct" route) for a spectrum that is not all negative, where the
    closed form is not the region's volume, and SpectrumError without `dt`;
    a missing T or dt, or the recursive route, raises ValueError.  A volume
    beyond the double range, on any route, raises VolumeDomainError, with
    numpy's overflow warnings off on the way.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        report = _mode_report(system, horizon, mode, route, dt)
    if not math.isfinite(report.volume):
        at = f"{'T' if mode == 'continuous' else 'N'} = {math.inf if horizon is None else horizon}"
        raise VolumeDomainError(f"the volume of the {at} region overflows double precision")
    return report


def _mode_report(system, horizon, mode, route, dt):
    """volume() before its overflow check."""
    if mode != "continuous":
        # the infinite horizon has no direct route; auto answers it
        return _region_report(system, horizon, mode,
                              "auto" if horizon is None and route == "direct" else route)
    if horizon is None:
        raise ValueError("continuous mode needs --T")
    model = system.to_model()
    cmodel = ContinuousModel(model.A, model.B, horizon)
    if route not in ("auto", "direct", "analytic"):
        raise ValueError(f"no {route} route in continuous mode")
    cls = cmodel.spectrum if route == "auto" else None
    warnings = ()
    if cls in (SpectrumClass.ALL_POSITIVE_DISTINCT, SpectrumClass.MIXED_SIGN):
        # the closed form answers here, but not with the region's volume
        if dt is None:
            raise SpectrumError(cls, "the continuous-time closed form needs an "
                                     "all-negative spectrum; a step --dt selects "
                                     "the Riemann oracle")
        warnings = (f"spectrum class {cls}: the closed form needs an all-negative "
                    f"spectrum; used the Riemann oracle",)
    elif route != "direct":
        return ct_volume_analytic(cmodel)
    if dt is None:
        raise ValueError("direct continuous volumes need an explicit --dt")
    return VolumeReport(volume=ct_discretized_oracle(cmodel, dt), route="direct",
                        warnings=warnings)
