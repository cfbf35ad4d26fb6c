"""Closed-form and recursive volume sums for diagonalizable systems.

For a single-input system with distinct real eigenvalues, the normalized
volume V_N of the N-step reachable region (the spectrum-only part, before
the 2^n coordinate/gain prefactor) admits three routes:

* direct: the exact determinant sum over the n-by-N power matrix
  [lambda_i^k] (see :mod:`reachvol.zonotope`), C(N, n - 2) prefix
  eliminations and angle-sorted 2-D sums;
* recursive: a dynamic program over deleted-eigenvalue subsequences,
  O(2^n N) arithmetic;
* analytic: a 2^n-term expansion over eigenvalue subsets, each term a sign
  coefficient times a power factor times two distribution factors, with
  cost independent of N.

One private route function answers every discrete-time region: the
reachable region (:func:`full_volume` is its discrete row), the narrow
region and the all-negative closed form of :mod:`reachvol.extensions`.  It
decides once, for every row, the route and the horizon, the direct route
and its generators, the flat region (r N < n: volume 0), the
decomposition and the "auto" fallback, and the moduli of an all-negative
spectrum.

One private kernel evaluates the expansion for every route that uses it:
the reachable region (powers lambda^N), the narrow region (lambda^-N) and
continuous time (exp(lambda T)), which differ only in the power and in
the pairwise and per-eigenvalue factor denominators, read from the one table
of factor forms in :mod:`reachvol.model`.  It builds each subset's
factors from the subset without its largest member, O(2^n n) in all, and
returns the terms and their total from one pass.

The expansion's terms cancel heavily near the N = n anchor, so the kernel
chooses its precision from the measured cancellation cond = sum|t| / |sum t|.
The n^2 per-eigenvalue scalars (pair factors, 1/self, the powers) are formed
in mpmath at DEFAULT_DPS = 40 digits and split into double-double mantissas
and binary exponents, and the 2^n tables are built in double-double numpy
arithmetic (Dekker's error-free products, one vector operation per factor and
new top bit), so powers far below the double range keep full precision.  Only
the powers depend on the horizon: the distribution-factor table is cached per
spectrum and factor form, so a sweep builds it once, with the bits a fresh
build gives.  The total is math.fsum over every word, the correctly rounded
sum of the double-double terms (Ogita, Rump & Oishi), and cond comes from the
same pass.  Below COND_DD = 1e13 that answer agrees with the 40-digit
evaluation to the last bit.  Above it the terms stay, as no term cancels, and
mpmath re-sums only the total, from tables it builds in the same bitmask
order, at GUARD_DIGITS = 20 digits beyond log10(cond), at least 40, and again
at what its own measured cond calls for, up to MAX_DPS = 100 digits; a sum
that needs more is refused with a SpectrumError of class IllConditioned.
Every output field is rounded once, subnormals included.  The report's
Precision record names the path, cond and digits.  The recursion needs no
divisions and runs in ordinary doubles, vectorized over subset bitmasks (see
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
    _FACTOR_FORMS,
    EPS_SING,
    SingularFactorError,
    SpectrumClass,
    SpectrumError,
    StateSpaceModel,
    UnboundedRegionError,
    VolumeDomainError,
    _nonsingular_det,
    _pair_index,
    _real_ascending,
    classify_spectrum,
    narrow_generators,
    reachability_generators,
)
from .zonotope import _NonFiniteGenerators, symmetric_volume

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
    """Which arithmetic summed a subset expansion.

    path is what summed the double-double terms, "double-double" or
    "mpmath"; cond = sum|t| / |sum t| is the cancellation it measured, and
    dps its working precision in digits (DD_DIGITS for double-double).
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
    return _factor_product(lam, mode)


def _factor_product(lam, form, skip_pair=None, skip_self=None):
    """distribution_factor of the float list `lam` in `form`, without the
    denominator of the pair skip_pair = (i, k), i < k, or of the eigenvalue
    skip_self (0-based positions), so it stays finite where that one vanishes."""
    pair_den, self_den, absolute = _FACTOR_FORMS[form]
    pair = 1.0
    for i in range(len(lam)):
        for k in range(i + 1, len(lam)):
            if (i, k) == skip_pair:
                pair *= lam[k] - lam[i]
                continue
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
        if i == skip_self:
            continue
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


@lru_cache(maxsize=8)
def _subset_order(n):
    """Per n: the bitmasks in size-then-lex order, their 1-based subsets and
    term signs in that order, and every bitmask's sign as +-1.0.  Depends on
    n only, so it is cached."""
    order = list(_subsets(n))
    masks = np.array([mask for _, mask in order])
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    # (-1)**((n+1)s - sum of 1-based members)
    sign = 1.0 - 2.0 * (((n + 1) * bits.sum(axis=1) - bits @ np.arange(1, n + 1)) % 2)
    for arr in (masks, sign):
        arr.setflags(write=False)
    subsets = tuple(tuple(j + 1 for j in sub) for sub, _ in order)
    return masks, subsets, tuple(int(x) for x in sign[masks]), sign


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
    """
    with np.errstate(under="ignore", over="ignore"):
        out = np.ldexp(hi, ex)
    sub = np.flatnonzero(np.abs(out) < sys.float_info.min)
    if sub.size:
        hi, lo, ex, low = hi[sub], lo[sub], ex[sub], out[sub]
        d = hi - np.ldexp(low, -ex)
        tie = (np.abs(d) == np.ldexp(1.0, -1075 - ex)) & (d * lo > 0.0)
        out[sub[tie]] += np.copysign(5e-324, d[tie])
    return out


def _factor_scalars(x, form):
    """1/self of each mpf in `x`, then the pair factors in _pair_index order,
    absolute where the form says so, at mpmath's working precision."""
    pair_den, self_den, absolute = _FACTOR_FORMS[form]
    pairs = ((x[j] - x[i]) / pair_den(x[i], x[j]) for i, j in zip(*_pair_index(len(x))))
    return [*(1 / self_den(v) for v in x), *(abs(p) if absolute else p for p in pairs)]


@lru_cache(maxsize=8)
def _dd_factor_table(key, form):
    """Distribution factors phi of every subset bitmask, double-double words
    and exponents, of the spectrum whose float64 bytes are `key`: cached per
    spectrum and form, read-only, as nothing here depends on the horizon.

    g[j, m] = 1/self(j) times pair(i, j) over the members i of m < 2^j, by
    one doubling per member i for every j > i at once."""
    lam = np.frombuffer(key)
    n = lam.size
    iu = _pair_index(n)
    with mp.workdps(DEFAULT_DPS):
        scalars = _dd_parts(_factor_scalars([mpf(float(v)) for v in lam], form))
    ph, pl, pe = (np.zeros((n, n), dtype=w.dtype) for w in scalars)
    ph[iu], pl[iu], pe[iu] = (w[n:] for w in scalars)
    gh, gl, ge = (np.empty((n, 1 << (n - 1)), dtype=w.dtype) for w in scalars)
    gh[:, 0], gl[:, 0], ge[:, 0] = (w[:n] for w in scalars)
    for i in range(n - 1):
        s, rest = 1 << i, slice(i + 1, n)
        gh[rest, s:2 * s], gl[rest, s:2 * s] = _dd_mul(
            gh[rest, :s], gl[rest, :s], ph[i, rest, None], pl[i, rest, None])
        ge[rest, s:2 * s] = ge[rest, :s] + pe[i, rest, None]
    phi = _dd_rows(gh, gl, ge)
    for arr in phi:
        arr.setflags(write=False)
    return phi


def _dd_rows(gh, gl, ge):
    """Products over the members of every bitmask, as words and exponents: a
    mask with top bit j extends mask - 2^j by g[j, mask - 2^j], or by g[j, 0]
    when g has one column."""
    n = len(gh)
    th, tl, te = np.empty(1 << n), np.empty(1 << n), np.empty(1 << n, dtype=np.int64)
    th[0], tl[0], te[0] = 1.0, 0.0, 0
    for j in range(n):
        s = 1 << j
        th[s:2 * s], tl[s:2 * s] = _dd_mul(th[:s], tl[:s], gh[j, :s], gl[j, :s])
        te[s:2 * s] = te[:s] + ge[j, :s]
    return th, tl, te


def _dd_expand(lam, horizon, mode):
    """Double-double evaluation of the expansion, in bitmask order.

    Returns the (4, 2^n) array of power, dist_in, dist_out and value per
    subset, each rounded once to double, and the total and cancellation
    sum|t| / |sum t|.  The per-eigenvalue scalars are formed in mpmath at
    DEFAULT_DPS digits and split into double-double mantissas and binary
    exponents; the tables multiply mantissas and add exponents, so powers
    far below the double range keep their full precision.  The distribution
    factors come from the cached _dd_factor_table, whose entries hold the
    bits a fresh build gives, so a warm call returns those of a cold one.
    """
    form, power = _EXPANSIONS[mode]
    sign = _subset_order(len(lam))[3]
    phi_h, phi_l, phi_e = _dd_factor_table(np.asarray(lam, dtype=float).tobytes(), form)
    with mp.workdps(DEFAULT_DPS):
        pw = _dd_parts([power(mpf(float(v)), horizon) for v in lam])
    ups_h, ups_l, ups_e = _dd_rows(*(w[:, None] for w in pw))
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


def _mp_rows(g):
    """_dd_rows in mpmath, products over the members of every bitmask: a mask
    with top bit j extends mask - 2^j by g[j], an mpf or an array over m < 2^j."""
    out = np.array([mpf(1)], dtype=object)
    for gj in g:
        out = np.concatenate([out, out * gj])
    return out


def _mp_tables(lam, horizon, mode):
    """Signed power and distribution-factor tables by subset bitmask, numpy
    arrays of mpf built by the double-double tables' top-bit doubling.  The
    sign, (-1)**(n - j) per 0-based member j, joins the powers."""
    form, power = _EXPANSIONS[mode]
    n = len(lam)
    x = [mpf(float(v)) for v in lam]
    scalars = _factor_scalars(x, form)
    pair = np.empty((n, n), dtype=object)
    pair[_pair_index(n)] = scalars[n:]
    # array * mpf: mpf * array would format the whole array before numpy multiplies
    phi = _mp_rows([_mp_rows(pair[:j, j]) * scalars[j] for j in range(n)])
    return _mp_rows([(-1) ** (n - j) * power(v, horizon) for j, v in enumerate(x)]), phi


def _digits_for(cond):
    """Working digits that resolve a sum cancelling by `cond` to GUARD_DIGITS."""
    if not math.isfinite(cond):
        return math.inf
    return max(DEFAULT_DPS, math.ceil(math.log10(max(cond, 1.0))) + GUARD_DIGITS)


def _mp_total(lam, horizon, mode, cond):
    """The expansion's total in mpmath, rounded once, and its Precision: at
    the digits the double-double `cond` calls for, then at those its own
    cancellation calls for, up to MAX_DPS; past that a SpectrumError."""
    # the double-double sum is good to about n^2 2^-100 of sum|t|: past that
    # its cond measures noise, and mpmath starts at the cap
    dps = min(_digits_for(cond), MAX_DPS) if cond * len(lam) ** 2 < 2.0 ** 100 else MAX_DPS
    while True:
        with mp.workdps(dps):
            ups, phi = _mp_tables(lam, horizon, mode)
            # the complement of mask m is 2^n - 1 - m: the reversed table
            terms = ups * phi * phi[::-1]
            total = mp.fsum(terms)
            cond = float(mp.fsum(terms, absolute=True) / abs(total)) if total else math.inf
        need = _digits_for(cond)
        if need <= dps:
            return float(_dd_round(*_dd_parts([total]))[0]), Precision("mpmath", cond, dps)
        if dps == MAX_DPS:
            raise SpectrumError(SpectrumClass.ILL_CONDITIONED,
                                f"the subset expansion cancels by {cond:.3g} "
                                f"(sum |t| / |sum t|) at {dps} digits, the cap of its "
                                f"working precision")
        dps = min(need, MAX_DPS)


def _expand(lam, horizon, mode):
    """The subset expansion: (terms, total, Precision) for a validated ascending
    spectrum.

    `mode` picks the power and the distribution factors (see _EXPANSIONS).
    Terms come from double-double in size-then-lex order, each field rounded
    to float once.  Double-double sums them when the measured cancellation
    is below COND_DD, and _mp_total otherwise.
    """
    fields, total, cond = _dd_expand(lam, horizon, mode)
    precision = Precision("double-double", cond, DD_DIGITS)
    if cond >= COND_DD:
        total, precision = _mp_total(lam, horizon, mode, cond)
    masks, subsets, signs = _subset_order(len(lam))[:3]
    terms = tuple(map(SubsetTerm, subsets, signs, *fields[:, masks].tolist()))
    return terms, total, precision


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
    factor out and couples subset to complement through the cross factor,
    the product over j in the subset and k outside it of
    (1 - l_j l_k) / (l_hi - l_lo), each pair ordered by index.  Both are
    algebraic rearrangements of :func:`analytic_volume_sum`, summed over the
    kernel's mpmath tables at DEFAULT_DPS digits, that cross-check the three
    printed forms against each other; the cross factor is computed here on
    its own, since it is what the factored form checks.
    """
    if form not in ("complement", "factored"):
        raise ValueError(f"unknown form {form!r}")
    lam = _expansion_input(lambdas, N)
    n = lam.size
    with mp.workdps(DEFAULT_DPS):
        ups, phi = _mp_tables(lam, N, "discrete")
        if form == "complement":
            return float(mp.fsum(ups[::-1] * phi * phi[::-1]))
        x = [mpf(float(v)) for v in lam]
        cross = np.array([mp.fprod((1 - x[j] * x[k]) / (x[max(j, k)] - x[min(j, k)])
                                   for j in range(n) if mask >> j & 1
                                   for k in range(n) if not mask >> k & 1)
                          for mask in range(1 << n)], dtype=object)
        return float(mp.fsum(ups * cross) * phi[-1])


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
    1-based ambient indices.  Each left-hand side is the factor over the
    members at the substitution point with the denominator that vanishes
    there left out (_factor_product), so it stays finite:

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
    m = len(members)

    def pos(k):
        return members.index(k) + 1  # 1-based position within members

    def at(k_sub, value):  # the member values with lambda_k_sub := value
        return [value if k == k_sub else vals[k] for k in members]

    def without(*drop):
        return [vals[k] for k in members if k not in drop]

    # --- case 1: Phi at lambda_j := lambda_i --------------------------------
    x = float(lam[i - 1])
    if j not in members:
        r1 = distribution_factor(without()) - distribution_factor(without())
    elif i in members:
        r1 = distribution_factor(at(j, x)) - 0.0
    else:
        s, h = pos(j), sum(1 for k in members if k < i)
        rhs = (1.0 if (s - h - 1) % 2 == 0 else -1.0) * \
            distribution_factor(sorted(without(j) + [x]))
        r1 = distribution_factor(at(j, x)) - rhs

    # --- case 2: (1 - lambda_i) * Phi at lambda_i := 1 ----------------------
    if i not in members:
        r2 = 0.0 * distribution_factor(without())
    else:
        h = pos(i)
        lhs = _factor_product(at(i, 1.0), "discrete_positive", skip_self=h - 1)
        rhs = (1.0 if (m - h) % 2 == 0 else -1.0) * distribution_factor(without(i))
        r2 = lhs - rhs

    # --- case 3: (1 - lambda_i lambda_j) * Phi at lambda_j := 1/lambda_i ----
    if abs(x) < EPS_SING:
        raise SingularFactorError("lambda_i near 0 is inadmissible in case 3")
    y_sub = 1.0 / x
    if i in members and j in members:
        h, s = pos(i), pos(j)
        lhs = _factor_product(at(j, y_sub), "discrete_positive", skip_pair=(h - 1, s - 1))
        rhs = (1.0 if (s - h) % 2 == 0 else -1.0) * (1.0 + x) / (1.0 - x) \
            * distribution_factor(without(i, j))
        r3 = lhs - rhs
    else:
        r3 = (1.0 - x * y_sub) * distribution_factor(at(j, y_sub))

    return (r1, r2, r3)


def _direct_report(system, N, warnings=(), generators=None):
    """Exact determinant-sum report over the N generators `generators` builds,
    by default reachability_generators, looked up when called, whose Krylov
    structure anchors the sum at the first block.  Generators that overflow
    raise VolumeDomainError."""
    model = system.to_model()
    # an unstable A may overflow: symmetric_volume's check refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        if generators is None:
            Z = reachability_generators(model, N)
            krylov = (model.r, abs(np.linalg.det(model.A)))
        else:
            Z, krylov = generators(model, N), None
    try:
        vol = symmetric_volume(Z, krylov=krylov)
    except _NonFiniteGenerators:
        raise VolumeDomainError(f"the generators of the N = {N} region overflow "
                                f"double precision") from None
    return VolumeReport(volume=vol, route="direct", warnings=tuple(warnings))


def narrow_via_relation(model, N, route="auto"):
    """Narrow-region volume through the inverse-system identity.

    The narrow region of (A, B) is the image under A^-1 of the reachable
    region of (A^-1, B), so its volume is |det A|^-1 times that reachable
    volume; this routes the right-hand side through :func:`full_volume`
    as an independent second route for narrow volumes.
    """
    det = _nonsingular_det(model)
    inverse_model = StateSpaceModel(np.linalg.inv(model.A), model.B)
    return full_volume(inverse_model, N, route).volume / det


def full_volume(system, N=None, route="auto"):
    """Volume of the N-step (or infinite-horizon) reachable region.

    The "discrete" row of the route function that also answers the narrow
    region and the all-negative closed form of :mod:`reachvol.extensions`,
    so the three decide each rule below in one place.

    Parameters
    ----------
    system : StateSpaceModel or EigenStructure
    N : integer >= 1, or None/inf for the infinite-horizon region, which
        only the eigenvalue routes answer
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
    return _region_report(system, N, "discrete", route)


def _region_report(system, N, mode, route):
    """The one route function of every discrete-time region: `mode` is
    "discrete" (:func:`full_volume`), "narrow" or "negative".

    Narrow differs from discrete in its generators, in the recursion, which
    goes through the inverse system, and in its expansion (inverse powers of
    the spectrum, no moduli), whose every refusal "auto" answers with the
    generator oracle.  Negative is the discrete row whose "auto" and
    "analytic" both mean the closed form, which requires lambda_i < 0 for
    all i and has no fallback; its direct and recursive routes are the
    discrete ones.  A horizon that is not an integer >= 1 raises ValueError,
    and so does None or inf outside the discrete row.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if mode not in ("discrete", "narrow", "negative"):
        raise ValueError(f"unknown mode {mode!r}")
    if N is None or N == math.inf:
        if mode != "discrete":
            raise ValueError(f"{mode} mode needs --N")
        if route in ("direct", "recursive"):
            raise ValueError(f"route {route!r} cannot evaluate an infinite horizon")
        eig = system.eigen
        cls = classify_spectrum(eig.eigenvalues, "discrete")
        phi = _infinite_sum(eig.eigenvalues, cls)
        return VolumeReport(volume=eig.volume_prefactor * abs(phi), route="infinite",
                            normalized_sum=phi, spectrum=cls)
    if N % 1:
        raise ValueError(f"N must be an integer, got {N}")
    N = int(N)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    narrow = mode == "narrow"
    generators = narrow_generators if narrow else None
    if route == "direct":
        return _direct_report(system, N, generators=generators)
    if system.r * N < system.n:  # fewer generators than dimensions, whatever the spectrum
        return VolumeReport(volume=0.0, route=route if route != "auto" else "analytic",
                            normalized_sum=0.0, warnings=("N < n: flat region, volume 0",))
    if narrow and route == "recursive":
        return VolumeReport(volume=narrow_via_relation(system.to_model(), N, "recursive"),
                            route="recursive")
    if mode == "negative" and route == "auto":
        route = "analytic"
    try:
        eig = system.eigen
        lam = eig.eigenvalues
        if narrow:
            if np.any(np.abs(lam) < EPS_SING):
                raise VolumeDomainError("narrow region needs nonzero eigenvalues")
            lam = _expansion_input(lam, N, what="the narrow-region expansion")
            return _expansion_report(eig, lam, N, "narrow", SpectrumClass.ALL_POSITIVE_DISTINCT)
    except (VolumeDomainError, ValueError) as exc:
        if route != "auto":
            raise
        warning = ("analytic narrow route refused; used generator oracle" if narrow
                   else f"eigenvalue routes unavailable ({exc}); used direct route")
        return _direct_report(system, N, (warning,), generators)
    negative = bool(np.all(lam < 0.0))
    if mode == "negative" and route == "analytic" and not negative:
        raise SpectrumError(classify_spectrum(lam, "discrete"),
                            "negative-spectrum route requires lambda_i < 0 for all i")
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
