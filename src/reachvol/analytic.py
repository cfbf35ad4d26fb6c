"""Closed-form and recursive volume sums for diagonalizable systems.

For a single-input system with distinct real eigenvalues, the normalized
volume V_N of the N-step reachable region (the spectrum-only part, before
the 2^n coordinate/gain prefactor) admits three routes:

* direct: the exact determinant sum over the n-by-N power matrix
  [lambda_i^k] (see :mod:`reachvol.zonotope`), O(N^n) determinants;
* recursive: a dynamic program over deleted-eigenvalue subsequences,
  O(2^n N) arithmetic;
* analytic: a 2^n-term expansion over eigenvalue subsets, each term a sign
  coefficient times a power factor times two distribution factors, with
  cost independent of N.

One private kernel evaluates the expansion for every route that uses it:
the reachable region (powers lambda^N), the narrow region (lambda^-N) and
continuous time (exp(lambda T)), which differ only in the power and in
the pairwise and per-eigenvalue factor formulas.  It builds each subset's
factors from the subset without its largest member, O(2^n n) in all, and
returns the terms and their total from one pass.

The expansion's terms cancel heavily near the N = n anchor, so the kernel
chooses its precision from the measured cancellation cond = sum|t| / |sum t|.
The n^2 per-eigenvalue scalars (pair factors, 1/self, the powers) are formed
in mpmath at DEFAULT_DPS = 40 digits and split into double-double mantissas
and binary exponents.  The 2^n tables are then built in double-double numpy
arithmetic (Dekker's error-free products, one vector operation per factor
and new top bit), so powers far below the double range keep full precision.
The total is math.fsum over every word, the correctly rounded sum of the
double-double terms (Ogita, Rump & Oishi), and cond comes from the same
pass.  Below COND_DD = 1e13 that answer agrees with the 40-digit
evaluation to the last bit.  Above it mpmath re-evaluates the tables at GUARD_DIGITS = 20 digits
beyond log10(cond), at least 40, and again at what its own measured cond
calls for, up to MAX_DPS = 100 digits; a sum that needs more is refused
with a SpectrumError of class IllConditioned.  Every output field is
rounded once, subnormals included.  The report's Precision record names
the path, cond and digits.  The recursion needs no divisions and runs in
ordinary doubles, vectorized over subset bitmasks (see
:func:`recursive_volume_sum`).
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np
from mpmath import mp, mpf

from .model import (
    EPS_SING,
    EigenStructure,
    SingularFactorError,
    SpectrumClass,
    SpectrumError,
    StateSpaceModel,
    UnboundedRegionError,
    _real_ascending,
    classify_spectrum,
    diagonalize,
    reachability_generators,
)
from .zonotope import symmetric_volume

__all__ = [
    "DEFAULT_DPS",
    "SubsetTerm",
    "Precision",
    "VolumeReport",
    "distribution_factor",
    "power_factor",
    "sign_coefficient",
    "quasi_vandermonde",
    "recursive_volume_sum",
    "analytic_volume_sum",
    "analytic_volume_terms",
    "analytic_volume_sum_grouped",
    "infinite_volume_sum",
    "full_volume",
    "deletion_identity_residual",
    "substitution_identity_residuals",
]

# Digits of the per-eigenvalue scalars, and the least the mpmath path uses.
DEFAULT_DPS = 40
# Double-double, about DD_DIGITS digits, answers below this cancellation
# sum|t| / |sum t|; there it gave the 40-digit bits on every case tried.
COND_DD = 1e13
DD_DIGITS = 32
# mpmath keeps GUARD_DIGITS beyond log10(cond), up to MAX_DPS digits; a sum
# that needs more is refused.
GUARD_DIGITS = 20
MAX_DPS = 100

# The routes of every finite-horizon volume, in every mode that has them.
ROUTES = ("auto", "direct", "recursive", "analytic")


class SubsetTerm(NamedTuple):
    """One eigenvalue-subset term of the analytic expansion.

    value = sign * power * dist_in * dist_out, where `subset` holds the
    selected 1-based eigenvalue indices, `power` is the product of their
    N-th powers, and dist_in/dist_out are the distribution factors of the
    subset and of its complement.
    """

    subset: tuple
    sign: int
    power: float
    dist_in: float
    dist_out: float
    value: float


@dataclass(frozen=True)
class Precision:
    """Which arithmetic answered a subset expansion.

    path is "double-double" or "mpmath"; cond = sum|t| / |sum t| is the
    cancellation measured on the terms; dps is the working precision in
    significant digits (DD_DIGITS for double-double).
    """

    path: str
    cond: float
    dps: int


@dataclass(frozen=True)
class VolumeReport:
    """Result of a volume computation.

    volume is always nonnegative.  normalized_sum is the spectrum-only sum
    (signed; eigenvalue routes only), so that for those routes
    volume = prefactor * |normalized_sum| with the 2^n coordinate/gain
    prefactor of the eigenstructure.  terms is the per-subset breakdown
    (analytic route only), ordered by subset size then lexicographically;
    precision says how those terms were evaluated.
    """

    volume: float
    route: str
    normalized_sum: float = None
    terms: tuple = None
    spectrum: SpectrumClass = None
    warnings: tuple = ()
    precision: Precision = None


def _check_sorted_spectrum(lam):
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("spectrum must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(lam)):
        raise ValueError("spectrum must be finite")
    if lam.size > 1 and np.any(np.diff(lam) < 0):
        raise ValueError("spectrum must be sorted ascending")


# Distribution-factor forms: pairwise denominator (the pairwise numerator is
# always l_k - l_i for i < k), per-eigenvalue denominator, and whether the
# pairwise product enters by magnitude.  Written once for floats
# (distribution_factor) and mpmath numbers (the expansion kernel).
_FACTOR_FORMS = {
    "discrete_positive": (lambda a, b: 1 - a * b, lambda x: 1 - x, False),
    "discrete_negative_abs": (lambda a, b: 1 - a * b, lambda x: 1 + x, True),
    "continuous": (lambda a, b: a + b, lambda x: x, True),
}


def distribution_factor(lambdas, mode="discrete_positive"):
    """Product of pairwise and per-eigenvalue distribution factors.

    Pairwise factors couple every ordered pair (i < k) of the given
    sequence; per-eigenvalue factors depend on the mode:

    ==================== ============================== =================
    mode                 pairwise factor                per-eigenvalue
    ==================== ============================== =================
    discrete_positive    (l_k - l_i) / (1 - l_i l_k)    1 / (1 - l_i)
    discrete_negative_abs |pairwise product|            1 / (1 + l_i)
    continuous           |(l_k - l_i) / (l_i + l_k)|    1 / l_i
    ==================== ============================== =================

    The empty sequence gives 1 (blank-sequence convention).

    Raises
    ------
    SingularFactorError
        If any denominator is within EPS_SING of zero; the message names
        the offending eigenvalue or pair.
    """
    lam = [float(x) for x in np.asarray(lambdas, dtype=float).ravel()]
    if mode not in _FACTOR_FORMS:
        raise ValueError(f"unknown mode {mode!r}")
    pair_den, self_den, absolute = _FACTOR_FORMS[mode]
    pair = 1.0
    for i in range(len(lam)):
        for k in range(i + 1, len(lam)):
            den = pair_den(lam[i], lam[k])
            if abs(den) < EPS_SING:
                raise SingularFactorError(
                    f"pair (lambda_{i + 1}={lam[i]}, lambda_{k + 1}={lam[k]}) "
                    f"makes a pairwise denominator vanish"
                )
            pair *= (lam[k] - lam[i]) / den
    if absolute:
        pair = abs(pair)
    out = pair
    for i, x in enumerate(lam):
        den = self_den(x)
        if abs(den) < EPS_SING:
            raise SingularFactorError(
                f"lambda_{i + 1}={x} makes a per-eigenvalue denominator vanish"
            )
        out /= den
    return out


def power_factor(lambdas, N, mode="discrete"):
    """Product of N-th eigenvalue powers (or the exponential, in CT).

    mode "discrete" gives prod lambda_i**N, "discrete_abs" uses |lambda_i|,
    and "continuous" interprets N as a time horizon T and returns
    exp(sum lambda_i * T).  The empty sequence gives 1.  Values that
    overflow double precision are re-evaluated in log space and reported.
    """
    lam = [float(x) for x in np.asarray(lambdas, dtype=float).ravel()]
    if mode not in ("discrete", "discrete_abs", "continuous"):
        raise ValueError(f"unknown mode {mode!r}")
    if not lam:
        return 1.0
    if mode == "continuous":
        arg = math.fsum(lam) * float(N)
        if arg > 709.0:
            raise OverflowError(
                f"power factor overflows double precision (log magnitude {arg:.6g})"
            )
        return math.exp(arg)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    try:
        out = 1.0
        for x in lam:
            out *= (abs(x) if mode == "discrete_abs" else x) ** int(N)
        if math.isinf(out):
            raise OverflowError
        return out
    except OverflowError:
        logmag = int(N) * math.fsum(math.log(abs(x)) for x in lam if x != 0.0)
        raise OverflowError(
            f"power factor overflows double precision (log magnitude {logmag:.6g})"
        ) from None


def sign_coefficient(subset, n):
    """Sign (-1)**((n+1)*s - sum(subset)) of a subset term.

    `subset` is a strictly increasing tuple of 1-based eigenvalue indices
    (size s) out of {1, ..., n}; the empty subset gives +1.
    """
    sub = tuple(int(j) for j in subset)
    if any(j < 1 or j > n for j in sub):
        raise ValueError(f"subset {sub} has indices outside 1..{n}")
    if any(b <= a for a, b in zip(sub, sub[1:])):
        raise ValueError(f"subset {sub} must be strictly increasing")
    return 1 if ((n + 1) * len(sub) - sum(sub)) % 2 == 0 else -1


def quasi_vandermonde(lambdas, exponents):
    """Determinant of the power matrix [lambda_i ** e_k].

    For 0 < lambda_1 < ... < lambda_n and strictly increasing nonnegative
    exponents the result is strictly positive (the generalized Vandermonde
    positivity that makes the direct volume sum cancellation-free).
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    exps = tuple(int(e) for e in np.atleast_1d(exponents))
    if len(exps) != lam.size:
        raise ValueError("need as many exponents as eigenvalues")
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be nonnegative")
    if any(b <= a for a, b in zip(exps, exps[1:])):
        raise ValueError("exponents must be strictly increasing")
    M = lam[:, None] ** np.asarray(exps)[None, :]
    return float(np.linalg.det(M))


@lru_cache(maxsize=8)
def _recursion_tables(n):
    """Index tables of the deletion recursion over the 2^n subset bitmasks.

    Rows: one per (mask, term), mask-major, each naming its target mask,
    its source mask and its column in a signed power table whose columns
    are lambda_i^k, then -lambda_i^k, then 1.  A mask's first row is the
    mask itself (power column 2n, the 1); then comes one row per member i
    ascending, with the mask without i as source and column i or n + i by
    the sign (-1)**(|mask| + pos) of the member's 1-based position pos.
    Also, per step k <= n, the masks of size k (seeded) and of size > k
    (zeroed), and per pair a < b in lexicographic order the masks holding
    both.  Depends on n only, so it is cached.
    """
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)) & 1
    size = bits.sum(axis=1)
    odd = (size[:, None] + np.cumsum(bits, axis=1)) % 2
    # table column 0 is the mask itself, column 1 + i its member i
    dst, c = np.nonzero(np.column_stack([np.ones(1 << n, dtype=bool), bits == 1]))
    src = dst ^ np.r_[0, 1 << np.arange(n)][c]
    col = np.column_stack([np.full(1 << n, 2 * n), np.arange(n) + n * odd])[dst, c]
    layers = [(np.flatnonzero(size == k), np.flatnonzero(size > k)) for k in range(n + 1)]
    pairs = [(a, b, np.flatnonzero(bits[:, a] & bits[:, b]))
             for a in range(n) for b in range(a + 1, n)]
    for arr in (dst, src, col, *(x for layer in layers for x in layer),
                *(idx for _, _, idx in pairs)):
        arr.setflags(write=False)
    return dst, src, col, layers, pairs


def recursive_volume_sum(lambdas, N):
    """Normalized volume sum V_N by the O(2^n N) deletion recursion.

    Seeds: V_N for a single eigenvalue accumulates the geometric series
    1 + lambda + ... + lambda^(N-1); at N = n the sum collapses to the
    Vandermonde product of the subset.  The step from N-1 to N adds, for
    each eigenvalue, a signed power times the sum over the spectrum with
    that eigenvalue deleted, so the table runs over all non-empty
    sub-spectra (bitmask-keyed).

    Each step is one gather and one ordered scatter-add over the row
    tables of :func:`_recursion_tables`: a mask's value starts from its
    previous value and adds, member by member in ascending order, the
    signed power lambda_i^(k-1) times the value of the mask without i.
    np.bincount adds the rows of one mask in the order given, so every
    sum rounds exactly as a scalar loop over masks and members would, and
    the result is bit-identical to it.  Powers come from repeated
    multiplication, and each seed multiplies its pairwise differences in
    lexicographic pair order, as the scalar Vandermonde product does.

    The recursion is division-free, hence usable where the closed-form
    expansion has (removable) singular factors, e.g. eigenvalues at 1 or
    reciprocal pairs.  It equals the region volume for strictly positive
    spectra; for mixed signs the determinants it accumulates are no longer
    all of one sign and the result is not a volume.

    Parameters
    ----------
    lambdas : sorted ascending distinct reals
    N : int, N >= n

    Returns
    -------
    float
    """
    lam_arr = np.atleast_1d(np.asarray(lambdas, dtype=float))
    _check_sorted_spectrum(lam_arr)
    n = lam_arr.size
    if _real_ascending(lam_arr)[2] is not None:
        raise SpectrumError(SpectrumClass.DEGENERATE, "recursion requires distinct eigenvalues")
    N = int(N)
    if N < n:
        raise ValueError(f"N must be >= n={n}, got {N}")

    dst, src, col, layers, pairs = _recursion_tables(n)
    # seeds: Vandermonde products, pairs (a, b) in lexicographic order
    seed = np.ones(1 << n)
    for a, b, both in pairs:
        seed[both] *= lam_arr[b] - lam_arr[a]
    # pows[k, i] = lambda_i ** k by repeated multiplication (cumprod is a
    # sequential accumulate); negation is exact, so a signed column times
    # a value rounds as the scalar loop's +-(power * value)
    pows = np.ones((N, n))
    pows[1:] = lam_arr
    np.cumprod(pows, axis=0, out=pows)
    pows = np.column_stack([pows, -pows, np.ones(N)])
    # empty spectrum contributes the constant 1 (empty determinant)
    prev = np.zeros(1 << n)
    prev[0] = 1.0
    for k in range(1, N + 1):
        cur = np.bincount(dst, weights=pows[k - 1].take(col) * prev.take(src),
                          minlength=1 << n)
        if k <= n:
            seeded, beyond = layers[k]
            cur[seeded] = seed[seeded]
            cur[beyond] = 0.0
        prev = cur
    return float(prev[-1])


# Expansion modes: distribution-factor form and the per-eigenvalue power
# at the horizon (N steps, or the time T).
_EXPANSIONS = {
    "discrete": ("discrete_positive", lambda x, N: x ** int(N)),
    "narrow": ("discrete_positive", lambda x, N: x ** -int(N)),
    "continuous": ("continuous", lambda x, T: mp.exp(mpf(T) * x)),
}


def _subsets(n):
    """(0-based subset, bitmask) pairs of {0..n-1}, by size then lexicographic."""
    for s in range(n + 1):
        for sub in combinations(range(n), s):
            yield sub, sum(1 << j for j in sub)


def _subset_tables(lam, horizon, mode):
    """Sign, power and distribution-factor tables indexed by subset bitmask.

    Each subset extends the prefix without its largest member j:
    phi(S+j) = phi(S) * prod_{i in S} pair(i, j) / self(j) and
    ups(S+j) = ups(S) * power(j), so all 2^n entries cost O(2^n n).
    Values are mpmath numbers at the caller's working precision.  This is
    the kernel's fallback for sums that cancel past double-double, and the
    reference its double-double tables are tested against.
    """
    form, power = _EXPANSIONS[mode]
    pair_den, self_den, absolute = _FACTOR_FORMS[form]
    n = len(lam)
    x = [mpf(float(v)) for v in lam]
    pw = [power(v, horizon) for v in x]
    selfs = [self_den(v) for v in x]
    pair = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = (x[j] - x[i]) / pair_den(x[i], x[j])
            pair[i][j] = abs(p) if absolute else p
    sign = [1] * (1 << n)
    ups = [mpf(1)] * (1 << n)
    phi = [mpf(1)] * (1 << n)
    for sub, mask in _subsets(n):
        if not sub:
            continue
        j = sub[-1]
        prev = mask ^ (1 << j)
        p = phi[prev]
        for i in sub[:-1]:
            p *= pair[i][j]
        phi[mask] = p / selfs[j]
        ups[mask] = ups[prev] * pw[j]
        # sign (-1)**((n+1)s - sum of 1-based members) gains (-1)**(n - j)
        sign[mask] = sign[prev] if (n - j) % 2 == 0 else -sign[prev]
    return sign, ups, phi


@lru_cache(maxsize=8)
def _subset_order(n):
    """Per n: the bitmasks in size-then-lex order, their 1-based subsets and
    term signs in that order, every bitmask's sign as +-1.0, and the index
    pairs i < j in lexicographic order.  Depends on n only, so it is cached."""
    order = list(_subsets(n))
    masks = np.array([mask for _, mask in order])
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    # (-1)**((n+1)s - sum of 1-based members)
    sign = 1.0 - 2.0 * (((n + 1) * bits.sum(axis=1) - bits @ np.arange(1, n + 1)) % 2)
    pairs = np.triu_indices(n, 1)
    for arr in (masks, sign, *pairs):
        arr.setflags(write=False)
    subsets = tuple(tuple(j + 1 for j in sub) for sub, _ in order)
    return masks, subsets, tuple(int(x) for x in sign[masks]), sign, pairs


_SPLIT = 134217729.0  # 2**27 + 1: Dekker's constant, splits a double into 26 + 27 bits


def _dd_mul(ah, al, bh, bl):
    """Double-double product (ah + al) * (bh + bl), renormalized.

    Dekker's TwoProd gives ah * bh exactly as p + e (numpy does not fuse
    multiply-adds, so every product below rounds once); the cross terms
    join the error word, and a fast two-sum renormalizes.
    """
    p = ah * bh
    t = _SPLIT * ah
    a1 = t - (t - ah)
    a2 = ah - a1
    t = _SPLIT * bh
    b1 = t - (t - bh)
    b2 = bh - b1
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    e += ah * bl + al * bh
    h = p + e
    return h, e - (h - p)


def _dd_parts(values):
    """Words hi, lo and exponents e, three arrays, with each mpf value equal to
    (hi + lo) * 2**e to about 106 bits and 0.5 <= |hi + lo| <= 1."""
    rows = []
    for v in values:
        # v = (-1)**sign * man * 2**exp, man of bc bits; int-to-float rounds once
        sign, man, exp, bc = v._mpf_
        hi = float(man)
        lo = float(man - int(hi))
        if sign:
            hi, lo = -hi, -lo
        rows.append((math.ldexp(hi, -bc), math.ldexp(lo, -bc), exp + bc))
    hi, lo, ex = np.array(rows, dtype=float).reshape(-1, 3).T
    return hi, lo, ex.astype(np.int64)


def _dd_round(hi, lo, ex):
    """The doubles nearest (hi + lo) * 2**ex, overflowing to +-inf.

    Scaling hi alone is exact unless the result is subnormal, where
    np.ldexp rounds hi to nearest, ties to even.  Only a tie can then
    differ from rounding hi + lo, and there the sign of lo decides.
    Call with numpy's underflow and overflow warnings off.
    """
    out = np.ldexp(hi, ex)
    sub = np.flatnonzero(np.abs(out) < sys.float_info.min)
    if sub.size:
        hi, lo, ex, low = hi[sub], lo[sub], ex[sub], out[sub]
        d = hi - np.ldexp(low, -ex)
        tie = (np.abs(d) == np.ldexp(1.0, -1075 - ex)) & (d * lo > 0.0)
        out[sub[tie]] += np.copysign(5e-324, d[tie])
    return out


def _dd_expand(lam, horizon, mode):
    """Double-double evaluation of the expansion, in bitmask order.

    Returns the (4, 2^n) array of power, dist_in, dist_out and value per
    subset, each rounded once to double, and the total and cancellation
    sum|t| / |sum t|.  The per-eigenvalue scalars are formed in mpmath at
    DEFAULT_DPS digits and split into double-double mantissas and binary
    exponents; the tables multiply mantissas and add exponents, so powers
    far below the double range keep their full precision.
    """
    form, power = _EXPANSIONS[mode]
    pair_den, self_den, absolute = _FACTOR_FORMS[form]
    n = len(lam)
    half = 1 << (n - 1)
    _, _, _, sign, iu = _subset_order(n)
    with mp.workdps(DEFAULT_DPS):
        x = [mpf(float(v)) for v in lam]
        pairs = ((x[j] - x[i]) / pair_den(x[i], x[j]) for i, j in zip(*iu))
        scalars = _dd_parts([*(power(v, horizon) for v in x), *(1 / self_den(v) for v in x),
                             *(abs(p) if absolute else p for p in pairs)])
    pw, inv = ([w[k * n:(k + 1) * n] for w in scalars] for k in (0, 1))
    ph, pl, pe = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n), dtype=np.int64)
    ph[iu], pl[iu], pe[iu] = (w[2 * n:] for w in scalars)
    # g[j, 0, m] = 1/self(j) * prod of pair(i, j) over the members i of m < 2^j,
    # g[j, 1, m] = power(j): one doubling per member i, for every j > i at once
    gh, gl = np.empty((n, 2, half)), np.empty((n, 2, half))
    ge = np.empty((n, 2, half), dtype=np.int64)
    gh[:, 0, 0], gl[:, 0, 0], ge[:, 0, 0] = inv
    gh[:, 1], gl[:, 1], ge[:, 1] = (w[:, None] for w in pw)
    for i in range(n - 1):
        s, rest = 1 << i, slice(i + 1, n)
        gh[rest, 0, s:2 * s], gl[rest, 0, s:2 * s] = _dd_mul(
            gh[rest, 0, :s], gl[rest, 0, :s], ph[i, rest, None], pl[i, rest, None])
        ge[rest, 0, s:2 * s] = ge[rest, 0, :s] + pe[i, rest, None]
    # rows phi and ups over bitmasks: a mask with top bit j extends mask - 2^j
    th, tl = np.empty((2, 1 << n)), np.empty((2, 1 << n))
    te = np.empty((2, 1 << n), dtype=np.int64)
    th[:, 0], tl[:, 0], te[:, 0] = 1.0, 0.0, 0
    for j in range(n):
        s = 1 << j
        th[:, s:2 * s], tl[:, s:2 * s] = _dd_mul(th[:, :s], tl[:, :s], gh[j, :, :s],
                                                 gl[j, :, :s])
        te[:, s:2 * s] = te[:, :s] + ge[j, :, :s]
    (phi_h, ups_h), (phi_l, ups_l), (phi_e, ups_e) = th, tl, te
    # the complement of mask m is 2^n - 1 - m: the reversed table
    vh, vl = _dd_mul(ups_h, ups_l, phi_h, phi_l)
    vh, vl = _dd_mul(vh, vl, phi_h[::-1], phi_l[::-1])
    vh, vl = vh * sign, vl * sign
    vh, k = np.frexp(vh)
    vl = np.ldexp(vl, -k)
    ve = ups_e + phi_e + phi_e[::-1] + k
    # total: every hi and lo word scaled to the largest term, summed exactly
    top = int(ve.max())
    with np.errstate(under="ignore", over="ignore"):
        scaled = np.ldexp(vh, ve - top)
        parts = scaled.tolist() + np.ldexp(vl, ve - top).tolist()
        total = math.fsum(parts)
        cond = float(np.abs(scaled).sum()) / abs(total) if total else math.inf
        # the rounding error of the sum only matters where the total is subnormal
        subnormal = top + math.frexp(total)[1] <= -1022
        residual = math.fsum(parts + [-total]) if subnormal else 0.0
        # power, dist_in, dist_out and value per mask, then the total, rounded at once
        out = _dd_round(np.concatenate([ups_h, phi_h, phi_h[::-1], vh, [total]]),
                        np.concatenate([ups_l, phi_l, phi_l[::-1], vl, [residual]]),
                        np.concatenate([ups_e, phi_e, phi_e[::-1], ve, [top]]))
    return out[:-1].reshape(4, -1), float(out[-1]), cond


def _mp_float(v):
    """An mpf rounded once to the nearest double.  float() rounds to 53 bits
    and then again into the subnormal range; int division rounds once."""
    f = float(v)
    if abs(f) < sys.float_info.min and v:
        man, exp = v.man_exp
        return math.copysign(man / (1 << -exp), f)
    return f


def _mp_expand(lam, horizon, mode, dps):
    """The expansion at `dps` digits in mpmath: (terms, total, cancellation)."""
    n = len(lam)
    full = (1 << n) - 1
    with mp.workdps(dps):
        sign, ups, phi = _subset_tables(lam, horizon, mode)
        terms = []
        total = magnitude = mpf(0)
        for sub, mask in _subsets(n):
            val = sign[mask] * ups[mask] * phi[mask] * phi[full ^ mask]
            total += val
            magnitude += abs(val)
            terms.append(SubsetTerm(tuple(j + 1 for j in sub), sign[mask],
                                    _mp_float(ups[mask]), _mp_float(phi[mask]),
                                    _mp_float(phi[full ^ mask]), _mp_float(val)))
        cond = float(magnitude / abs(total)) if total else math.inf
        return tuple(terms), _mp_float(total), cond


def _digits_for(cond):
    """Working digits that resolve a sum cancelling by `cond` to GUARD_DIGITS."""
    if not math.isfinite(cond):
        return math.inf
    return max(DEFAULT_DPS, math.ceil(math.log10(max(cond, 1.0))) + GUARD_DIGITS)


def _expand(lam, horizon, mode):
    """The subset expansion: (terms, total, Precision) for a validated ascending
    spectrum.

    `mode` picks the power and the distribution factors (see _EXPANSIONS).
    Terms come in size-then-lex order, each field rounded to float once.
    Double-double answers when the measured cancellation is below COND_DD.
    Otherwise mpmath re-evaluates at the digits that cancellation calls for
    (at MAX_DPS where the double-double sum is noise), and again at the
    digits its own measured cancellation calls for, up to MAX_DPS.  A sum
    that needs more is refused with a SpectrumError.
    """
    n = len(lam)
    fields, total, cond = _dd_expand(lam, horizon, mode)
    if cond < COND_DD:
        masks, subsets, signs = _subset_order(n)[:3]
        terms = tuple(map(SubsetTerm, subsets, signs, *fields[:, masks].tolist()))
        return terms, total, Precision("double-double", cond, DD_DIGITS)
    # the double-double sum is good to about n^2 2^-100 of sum|t|: past that
    # its cond measures noise, and mpmath starts at the cap
    dps = min(_digits_for(cond), MAX_DPS) if cond * n * n < 2.0 ** 100 else MAX_DPS
    while True:
        terms, total, cond = _mp_expand(lam, horizon, mode, dps)
        need = _digits_for(cond)
        if need <= dps:
            return terms, total, Precision("mpmath", cond, dps)
        if dps == MAX_DPS:
            raise SpectrumError(SpectrumClass.ILL_CONDITIONED,
                                f"the subset expansion cancels by {cond:.3g} "
                                f"(sum |t| / |sum t|) at {dps} digits, the cap of its "
                                f"working precision")
        dps = min(need, MAX_DPS)


def _expansion_input(lambdas, N, cls=None, what="the analytic expansion"):
    """The spectrum as an array, once its discrete class `cls` (None: classify
    here) meets the expansion's hypotheses and N >= n."""
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    _check_sorted_spectrum(lam)
    if cls is None:
        cls = classify_spectrum(lam, "discrete")
    if cls is not SpectrumClass.ALL_POSITIVE_DISTINCT:
        raise SpectrumError(cls, f"{what} requires 0 < lambda_1 < ... < lambda_n "
                                 f"with no factor denominator near zero")
    if int(N) < lam.size:
        raise ValueError(f"N must be >= n={lam.size}, got {N}")
    return lam


def _expansion_report(eig, lam, horizon, mode, spectrum, warnings=()):
    """VolumeReport of one kernel evaluation, scaled by eig's prefactor."""
    terms, total, precision = _expand(lam, horizon, mode)
    # a discrete sum is a volume; narrow and continuous sums are signed
    if mode != "discrete" and total < 0.0:
        warnings = (*warnings, "signed normalized sum is negative; volume is its magnitude")
    return VolumeReport(volume=eig.volume_prefactor * abs(total), route="analytic",
                        normalized_sum=total, terms=terms, spectrum=spectrum,
                        warnings=tuple(warnings), precision=precision)


def analytic_volume_sum(lambdas, N):
    """Normalized volume sum V_N by the closed-form subset expansion.

    Sums, over all 2^n subsets of the spectrum, sign * power * dist_in *
    dist_out; evaluation cost does not depend on N.  Requires a strictly
    positive, strictly ascending spectrum with every factor denominator
    (1 - lambda_i, 1 - lambda_i lambda_j) bounded away from zero.

    Raises
    ------
    SpectrumError
        Carrying the failing SpectrumClass when a hypothesis does not hold;
        callers may fall back to the recursive or direct route.
    """
    lam = _expansion_input(lambdas, N)
    return _expand(lam, N, "discrete")[1]


def analytic_volume_terms(lambdas, N):
    """Subset-term breakdown of :func:`analytic_volume_sum`.

    Returns the 2^n terms in deterministic order (size, then lex); their
    exact sum is the value analytic_volume_sum returns.
    """
    lam = _expansion_input(lambdas, N)
    return list(_expand(lam, N, "discrete")[0])


def analytic_volume_sum_grouped(lambdas, N, form="factored"):
    """V_N via the regrouped prints of the expansion.

    form "complement" swaps each subset's sign and power factor for the
    complement's; form "factored" pulls the full-spectrum distribution
    factor out and couples subset to complement through the cross factor.
    Both are algebraic rearrangements of :func:`analytic_volume_sum` and
    exist to cross-check the three printed forms against each other; the
    cross factor is computed here on its own, since it is what the
    factored form checks.
    """
    if form not in ("complement", "factored"):
        raise ValueError(f"unknown form {form!r}")
    lam = _expansion_input(lambdas, N)
    n = lam.size
    full = (1 << n) - 1
    with mp.workdps(DEFAULT_DPS):
        sign, ups, phi = _subset_tables(lam, N, "discrete")
        total = mpf(0)
        if form == "complement":
            for _, mask in _subsets(n):
                comp = full ^ mask
                total += sign[comp] * ups[comp] * phi[mask] * phi[comp]
        else:
            x = [mpf(float(v)) for v in lam]
            for sub, mask in _subsets(n):
                cross = mpf(1)
                for j in sub:
                    for k in range(n):
                        if not mask >> k & 1:
                            a, b = (j, k) if j < k else (k, j)
                            cross *= (1 - x[j] * x[k]) / (x[b] - x[a])
                total += sign[mask] * ups[mask] * cross
            total *= phi[full]
        return float(total)


def infinite_volume_sum(lambdas):
    """Normalized volume of the infinite-horizon reachable region.

    For a distinct same-sign spectrum strictly inside the unit circle this
    is the full-spectrum distribution factor with per-eigenvalue factors
    1 / (1 - |lambda_i|); the finite-horizon sums converge to it at rate
    max|lambda|**N, with the tail constant the summed magnitudes of the
    non-empty subset terms of :func:`analytic_volume_terms`:
    |V_N - V_inf| <= (sum over S != {} of |dist_in * dist_out|) * max|lambda|**N.
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    _check_sorted_spectrum(lam)
    return _infinite_sum(lam, classify_spectrum(lam, "discrete"))


def _infinite_sum(lam, cls):
    """infinite_volume_sum of a checked ascending spectrum of class `cls`."""
    if np.max(np.abs(lam)) >= 1.0:
        raise UnboundedRegionError("infinite-time region unbounded")
    if cls in (SpectrumClass.DEGENERATE, SpectrumClass.MIXED_SIGN):
        raise SpectrumError(cls, "infinite-horizon formula needs distinct same-sign eigenvalues")
    if np.any(1.0 - np.abs(lam) < EPS_SING):
        raise SingularFactorError("an eigenvalue magnitude is within tolerance of 1")
    mode = "discrete_negative_abs" if lam[0] < 0.0 else "discrete_positive"
    return float(distribution_factor(lam, mode))


def deletion_identity_residual(lambdas):
    """Left-minus-right residual of the one-eigenvalue-deletion identity.

    The identity: (1 - prod(lambda)) * Phi(full spectrum) equals the
    alternating sum over k of (product of all eigenvalues but the k-th)
    times Phi(spectrum with the k-th deleted), with Phi the signed
    discrete distribution factor.  Exact algebraically; the residual
    measures floating-point evaluation only.
    """
    lam = [float(x) for x in np.atleast_1d(np.asarray(lambdas, dtype=float))]
    n = len(lam)
    if n < 1:
        raise ValueError("need at least one eigenvalue")
    ups_full = math.prod(lam)
    lhs = (1.0 - ups_full) * distribution_factor(lam)
    rhs_terms = []
    for k in range(1, n + 1):
        rest = lam[:k - 1] + lam[k:]
        ups = math.prod(rest) if rest else 1.0
        rhs_terms.append((1.0 if (1 + k) % 2 == 0 else -1.0) * ups * distribution_factor(rest))
    return lhs - math.fsum(rhs_terms)


def substitution_identity_residuals(lambdas, i, j, *, members=None):
    """Residuals of the three substitution limits of the distribution factor.

    `lambdas` is the ambient spectrum (strictly ascending); `members` picks
    the index subset the factor is built over (default: all); i < j are
    1-based ambient indices.  The three left-hand sides are evaluated by
    substituting into factored forms that stay finite at the substitution
    point:

    1. Phi at lambda_j := lambda_i -- zero when both are members, a signed
       member swap when only lambda_j is, unchanged when lambda_j is not.
    2. (1 - lambda_i) * Phi at lambda_i := 1 -- a signed deletion when
       lambda_i is a member, zero otherwise.
    3. (1 - lambda_i lambda_j) * Phi at lambda_j := 1/lambda_i -- a signed
       double deletion scaled by (1 + lambda_i)/(1 - lambda_i) when both
       are members, zero otherwise.

    Returns the triple of left-minus-right values, each ~0 up to rounding.
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    _check_sorted_spectrum(lam)
    n = lam.size
    if members is None:
        members = tuple(range(1, n + 1))
    members = tuple(int(k) for k in members)
    if any(k < 1 or k > n for k in members) or \
            any(b <= a for a, b in zip(members, members[1:])):
        raise ValueError(f"members {members} must be strictly increasing in 1..{n}")
    i, j = int(i), int(j)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}")
    vals = {k: float(lam[k - 1]) for k in members}
    mem_vals = [vals[k] for k in members]
    m = len(members)

    def pos(k):
        return members.index(k) + 1  # 1-based position within members

    # --- case 1: Phi at lambda_j := lambda_i --------------------------------
    x = float(lam[i - 1])
    if j not in members:
        r1 = distribution_factor(mem_vals) - distribution_factor(mem_vals)
    elif i in members:
        subst = [x if k == j else vals[k] for k in members]
        r1 = distribution_factor(subst) - 0.0
    else:
        s = pos(j)
        rest = [vals[k] for k in members if k != j]
        lhs = distribution_factor(rest) / (1.0 - x)
        for q, k in enumerate(members, start=1):
            if k == j:
                continue
            y = vals[k]
            den = 1.0 - x * y
            if abs(den) < EPS_SING or abs(1.0 - x) < EPS_SING:
                raise SingularFactorError(
                    f"substitution point collides with lambda_{k} in case 1")
            lhs *= ((x - y) if q < s else (y - x)) / den
        h = sum(1 for k in members if k < i)
        new_set = sorted(rest + [x])
        rhs = (1.0 if (s - h - 1) % 2 == 0 else -1.0) * distribution_factor(new_set)
        r1 = lhs - rhs

    # --- case 2: (1 - lambda_i) * Phi at lambda_i := 1 ----------------------
    if i not in members:
        r2 = 0.0 * distribution_factor(mem_vals)
    else:
        h = pos(i)
        rest = [vals[k] for k in members if k != i]
        lhs = distribution_factor(rest)
        for q, k in enumerate(members, start=1):
            if k == i:
                continue
            y = vals[k]
            den = 1.0 - y  # 1 - y*x at x = 1
            if abs(den) < EPS_SING:
                raise SingularFactorError(
                    f"substitution point collides with lambda_{k} in case 2")
            lhs *= ((1.0 - y) if q < h else (y - 1.0)) / den
        rhs = (1.0 if (m - h) % 2 == 0 else -1.0) * distribution_factor(rest)
        r2 = lhs - rhs

    # --- case 3: (1 - lambda_i lambda_j) * Phi at lambda_j := 1/lambda_i ----
    if abs(x) < EPS_SING:
        raise SingularFactorError("lambda_i near 0 is inadmissible in case 3")
    y_sub = 1.0 / x
    if i in members and j in members:
        if abs(1.0 - x) < EPS_SING:
            raise SingularFactorError("lambda_i near 1 is inadmissible in case 3")
        h, s = pos(i), pos(j)
        rest = [vals[k] for k in members if k not in (i, j)]
        lhs = (y_sub - x) * distribution_factor(rest) / ((1.0 - x) * (1.0 - y_sub))
        for q, k in enumerate(members, start=1):
            if k in (i, j):
                continue
            y = vals[k]
            d1 = 1.0 - y * x
            d2 = 1.0 - y * y_sub
            if abs(d1) < EPS_SING or abs(d2) < EPS_SING:
                raise SingularFactorError(
                    f"substitution point collides with lambda_{k} in case 3")
            lhs *= ((x - y) if q < h else (y - x)) / d1
            lhs *= ((y_sub - y) if q < s else (y - y_sub)) / d2
        rhs = (1.0 if (s - h) % 2 == 0 else -1.0) * (1.0 + x) / (1.0 - x) \
            * distribution_factor(rest)
        r3 = lhs - rhs
    else:
        subst = [y_sub if k == j else vals[k] for k in members]
        r3 = (1.0 - x * y_sub) * distribution_factor(subst)

    return (r1, r2, r3)


def _ensure_eigen(system):
    if isinstance(system, EigenStructure):
        return system
    return diagonalize(system)


def _ensure_model(system):
    if isinstance(system, StateSpaceModel):
        return system
    return system.to_model()


def _direct_report(system, N, warnings=(), generators=reachability_generators):
    """Exact determinant-sum report over the N generators `generators` builds."""
    vol = symmetric_volume(generators(_ensure_model(system), N))
    return VolumeReport(volume=vol, route="direct", warnings=tuple(warnings))


def _steps(N):
    """The horizon N as an int, at least 1."""
    N = int(N)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return N


def _flat_report(system, N, route):
    """The report of a flat region, or None: fewer generators (r N) than
    dimensions (n) span volume 0, whatever the spectrum."""
    if system.r * N >= system.n:
        return None
    return VolumeReport(volume=0.0, route=route if route != "auto" else "analytic",
                        normalized_sum=0.0, warnings=("N < n: flat region, volume 0",))


def full_volume(system, N=None, route="auto"):
    """Volume of the N-step (or infinite-horizon) reachable region.

    Parameters
    ----------
    system : StateSpaceModel or EigenStructure
    N : int, or None/inf for the infinite-horizon region
    route : one of ROUTES, {"auto", "direct", "recursive", "analytic"}
        Every route but "direct" reports a flat region (r N < n) as volume
        0 before any spectrum work, then diagonalizes and classifies once.
        An all-negative spectrum is evaluated and classified on its moduli
        sorted ascending, which span the same volume.  "auto" takes the
        analytic expansion where its hypotheses hold, the recursion for a
        same-sign NearSingularFactor spectrum, and the exact determinant
        sum otherwise, also for a system it cannot diagonalize.

    Returns
    -------
    VolumeReport
        With the route actually used, diagnostics, and (analytic route)
        the subset-term breakdown.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if N is None or (isinstance(N, float) and math.isinf(N)):
        if route in ("direct", "recursive"):
            raise ValueError(f"route {route!r} cannot evaluate an infinite horizon")
        eig = _ensure_eigen(system)
        cls = classify_spectrum(eig.eigenvalues, "discrete")
        phi = _infinite_sum(eig.eigenvalues, cls)
        return VolumeReport(volume=eig.volume_prefactor * abs(phi), route="infinite",
                            normalized_sum=phi, spectrum=cls)
    N = _steps(N)
    if route == "direct":
        return _direct_report(system, N)
    return _flat_report(system, N, route) or _eigen_report(system, N, route)


def _eigen_report(system, N, route):
    """full_volume on a route other than "direct", for a region that is not flat."""
    try:
        eig = _ensure_eigen(system)
    except (SpectrumError, ValueError) as exc:
        if route != "auto":
            raise
        return _direct_report(system, N, (f"eigenvalue routes unavailable ({exc}); "
                                          f"used direct route",))
    lam = eig.eigenvalues
    negative = bool(np.all(lam < 0.0))
    work = np.sort(np.abs(lam)) if negative else lam
    cls = spectrum = classify_spectrum(work, "discrete")
    warnings = []
    if negative:
        warnings.append("all-negative spectrum: evaluated on |lambda| sorted ascending")
        if cls is SpectrumClass.ALL_POSITIVE_DISTINCT:
            spectrum = SpectrumClass.ALL_NEGATIVE_DISTINCT
    if route == "analytic" or (route == "auto" and cls is SpectrumClass.ALL_POSITIVE_DISTINCT):
        return _expansion_report(eig, _expansion_input(work, N, cls), N, "discrete",
                                 spectrum, warnings)
    if route == "recursive" and cls is SpectrumClass.MIXED_SIGN:
        raise SpectrumError(cls, "recursion requires a same-sign spectrum")
    if route == "auto":
        # the recursion needs no factor division, the determinant sum nothing
        if cls is not SpectrumClass.NEAR_SINGULAR_FACTOR:
            warnings.append(f"spectrum class {cls}; used direct route")
            return _direct_report(system, N, warnings)
        if not np.all(work > 0.0):
            warnings.append("NearSingularFactor on a mixed-sign spectrum; used direct route")
            return _direct_report(system, N, warnings)
        warnings.append("analytic route refused (NearSingularFactor); used recursion")
    v = float(recursive_volume_sum(work, N))
    return VolumeReport(volume=eig.volume_prefactor * abs(v), route="recursive",
                        normalized_sum=v, spectrum=spectrum, warnings=tuple(warnings))
