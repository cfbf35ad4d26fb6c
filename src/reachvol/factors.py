"""Deconstructed control-capability factors.

The closed-form volume of a reachable region factors into quantities a
control engineer can read separately: a shape factor measuring how evenly
the poles are distributed (pairwise eigenvalue coupling), the side lengths
of the circumscribed rhombohedron (per-mode horizon-dependent reach), and
the modal controllability |q_i b| (how strongly the input drives each
mode).  The cross factor couples an eigenvalue subset to its complement
and is what regroups the subset expansion into its factored print.  The
shape factor's pairwise denominators are those of the distribution-factor
forms in :mod:`reachvol.model`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import (_FACTOR_FORMS, _MODE_FORMS, EPS_SING, SingularFactorError,
                    VolumeDomainError, _pair_index)

__all__ = [
    "FactorReport",
    "shape_factor",
    "cross_factor",
    "side_lengths",
    "modal_controllability",
    "build_factor_report",
]


@dataclass(frozen=True)
class FactorReport:
    """Capability factors of one system at one horizon.

    F1 is the product of pairwise shape factors within each partition side;
    F1_pairs the full symmetric pairwise matrix (diagonal fixed at 1,
    entries with a vanishing denominator reported as inf); F2 the side
    lengths; F3 the modal controllability; p_plus/p_minus the 1-based
    indices of eigenvalues above/below the partition threshold.
    """

    F1: float
    F1_pairs: np.ndarray
    F2: tuple
    F3: tuple
    p_plus: tuple
    p_minus: tuple


def shape_factor(lambdas, mode="discrete"):
    """Pole-distribution (eigenvalue evenness) factor.

    Partitions the spectrum at 1 (discrete) or at 0 (continuous) and
    multiplies the pairwise factors |(l_b - l_a)/(1 - l_a l_b)| (discrete)
    or |(l_b - l_a)/(l_a + l_b)| (continuous) within each side; pairs that
    straddle the partition do not enter F1.  Returns (F1, pair matrix,
    (p_plus, p_minus)) with partitions as 1-based index tuples.

    Raises
    ------
    SingularFactorError
        If an eigenvalue sits on the partition threshold, or a pair inside
        one partition side has a vanishing denominator.
    """
    if mode not in _MODE_FORMS:
        raise ValueError(f"unknown mode {mode!r}")
    lam = [float(x) for x in np.asarray(lambdas, dtype=float).ravel()]
    n = len(lam)
    if n < 1:
        raise ValueError("need at least one eigenvalue")
    thresh = 1.0 if mode == "discrete" else 0.0
    for i, x in enumerate(lam):
        if abs(x - thresh) < EPS_SING:
            raise SingularFactorError(
                f"lambda_{i + 1}={x} lies on the partition threshold {thresh}")
    p_plus = tuple(i + 1 for i, x in enumerate(lam) if x > thresh)
    p_minus = tuple(i + 1 for i, x in enumerate(lam) if x < thresh)

    x, (a, b) = np.array(lam), _pair_index(n)
    den = _FACTOR_FORMS[_MODE_FORMS[mode]][0](x[a], x[b])
    pairs = np.ones((n, n))
    with np.errstate(all="ignore"):  # the entries at a vanishing den are replaced
        pairs[a, b] = np.where(np.abs(den) < EPS_SING, math.inf, np.abs((x[b] - x[a]) / den))
    pairs[b, a] = pairs[a, b]

    f1 = 1.0
    for side in (p_plus, p_minus):
        for ia in range(len(side)):
            for ib in range(ia + 1, len(side)):
                a, b = side[ia] - 1, side[ib] - 1
                if not math.isfinite(pairs[a, b]):
                    raise SingularFactorError(
                        f"pair (lambda_{a + 1}={lam[a]}, lambda_{b + 1}={lam[b]}) "
                        f"has a vanishing shape-factor denominator")
                f1 *= pairs[a, b]
    return f1, pairs, (p_plus, p_minus)


def cross_factor(subset, complement, lambdas):
    """Coupling factor between an eigenvalue subset and its complement.

    Product over all pairs (j in subset, k in complement) of
    (1 - l_j l_k) / (l_hi - l_lo), with each pair oriented by ascending
    index so that dist(subset) * dist(complement) = cross * dist(all):
    exactly the factor that regroups the subset expansion into the
    factored form.

    Raises on overlapping index sets or a vanishing denominator.
    """
    lam = [float(x) for x in np.asarray(lambdas, dtype=float).ravel()]
    n = len(lam)
    sub = tuple(int(x) for x in subset)
    comp = tuple(int(x) for x in complement)
    for name, t in (("subset", sub), ("complement", comp)):
        if any(k < 1 or k > n for k in t):
            raise ValueError(f"{name} {t} has indices outside 1..{n}")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"{name} {t} must be strictly increasing")
    if set(sub) & set(comp):
        raise ValueError(f"subset {sub} and complement {comp} overlap")
    out = 1.0
    for j in sub:
        for k in comp:
            lo, hi = (j, k) if j < k else (k, j)
            den = lam[hi - 1] - lam[lo - 1]
            num = 1.0 - lam[j - 1] * lam[k - 1]
            if abs(den) < EPS_SING:
                raise SingularFactorError(
                    f"pair (lambda_{j}, lambda_{k}) has coincident eigenvalues")
            out *= num / den
    return out


def side_lengths(eig, mode, horizon=None):
    """Circumscribed-rhombohedron side lengths per mode, by horizon kind.

    Each is the region's half-width |q_i b| sum_k |l_i|^k along mode i, the
    sum over the steps k = 0..N-1 (finite), k >= 0 (infinite) or
    k = -N..-1 (narrow), and its integral for continuous time:

    mode "finite" (steps N): |q_i b| * |1 - |l_i|**N| / |1 - |l_i||
    mode "infinite":         |q_i b| / (1 - |l_i|), needs |l_i| < 1
    mode "narrow" (steps N): |q_i b| * |1 - |l_i|**-N| / |1 - |l_i||
    mode "continuous" (T):   |q_i b| * |1 - exp(l_i T)| / |l_i|
    """
    lam = eig.eigenvalues
    mag = np.abs(lam)
    gains = np.abs(eig.modal_gains)
    if mode == "infinite":
        if np.any(mag >= 1.0 - EPS_SING):
            raise VolumeDomainError(
                "infinite-horizon side lengths need |lambda_i| < 1")
        return tuple(float(g / (1.0 - x)) for g, x in zip(gains, mag))
    if horizon is None:
        raise ValueError(f"mode {mode!r} needs a horizon")
    if mode in ("finite", "narrow"):
        N = int(horizon) if mode == "finite" else -int(horizon)
        if mode == "narrow" and np.any(mag < EPS_SING):
            raise VolumeDomainError("narrow side lengths undefined at lambda = 0")
        if np.any(np.abs(1.0 - mag) < EPS_SING):
            raise VolumeDomainError(f"{mode} side lengths undefined at lambda = 1")
        return tuple(float(g * abs(1.0 - x ** N) / abs(1.0 - x))
                     for g, x in zip(gains, mag))
    if mode == "continuous":
        T = float(horizon)
        if np.any(np.abs(lam) < EPS_SING):
            raise VolumeDomainError("continuous side lengths undefined at lambda = 0")
        return tuple(float(g * abs(1.0 - math.exp(x * T)) / abs(x))
                     for g, x in zip(gains, lam))
    raise ValueError(f"unknown mode {mode!r}")


def modal_controllability(eig):
    """|q_i b| per mode, with unit-normalized left eigenvector rows.

    A zero flags an uncontrollable mode (the reachable region is flat
    along that eigendirection).  The reported values depend on the row
    normalization of the eigenstructure, which diagonalize() fixes to
    unit Euclidean norm.
    """
    return tuple(float(abs(g)) for g in eig.modal_gains)


def build_factor_report(eig, mode="discrete", horizon=None):
    """Assemble the full factor report for one system and horizon.

    `mode` here selects the side-length variant ("finite", "infinite",
    "narrow", "continuous"); the shape factor uses the discrete pairwise
    form except under "continuous".
    """
    shape_mode = "continuous" if mode == "continuous" else "discrete"
    f1, pairs, (p_plus, p_minus) = shape_factor(eig.eigenvalues, shape_mode)
    f2 = side_lengths(eig, mode, horizon)
    f3 = modal_controllability(eig)
    return FactorReport(F1=f1, F1_pairs=pairs, F2=f2, F3=f3,
                        p_plus=p_plus, p_minus=p_minus)
