"""Exact zonotope volume from a generator matrix.

A zonotope spanned by the columns z_1, ..., z_m of an n-by-m generator
matrix is the set of points sum_i c_i z_i with every coefficient c_i in a
unit interval.  Its n-dimensional volume is the sum, over all n-element
column subsets, of the absolute determinant of the selected n-by-n
submatrix.  That sum is the ground truth every faster route in this
package is checked against; :func:`unit_cube_volume` evaluates it without
visiting the subsets one by one (Gover & Krikorian, LAA 433, 2010).

A Krylov matrix [B, AB, ..., A^(N-1)B] has more structure: shifting a
subset down by p blocks multiplies its determinant by det(A)^p, so the
subsets that hold a first-block column, each weighted by the sum of
|det A|^p over its shifts, give the whole sum.  With
``krylov=(r, |det A|)`` only those subsets are visited: r C(m, n - 3)
prefixes instead of C(m, n - 2), each finished by one weighted O(m^2) 2-D
sum instead of an O(m log m) sort.  The direct discrete and
continuous-time routes declare it; narrow generators (whose first block is
their least accurate), ``reachvol check`` and the test references keep the
generic sum as the independent reference.

The generator matrix is checked once, where it enters through
:func:`symmetric_volume` or :func:`unit_cube_volume`: a 2-D float array
with finite entries, or ValueError.  A non-finite entry raises a private
subclass, which the direct routes report as an overflowing region.  The
kernels below take the matrix as checked.
"""

import math
from itertools import combinations, islice

import numpy as np

from .model import VolumeDomainError

__all__ = [
    "determinant_count",
    "unit_cube_volume",
    "symmetric_volume",
]

# Elements per vectorized batch: prefixes x n x m, or on the Krylov path
# prefixes x m x m, and at most this many in one 2-D mask.
_CHUNK = 65536


class _NonFiniteGenerators(ValueError):
    """A generator matrix with an inf or nan entry."""


def _as_generator_matrix(Z):
    """Validate and convert a generator matrix to a float ndarray.

    Accepts anything array-like with shape (n, m), n >= 1 and m >= 1.
    Raises ValueError for empty shapes, _NonFiniteGenerators (a ValueError)
    for non-finite entries.
    """
    A = np.asarray(Z, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"generator matrix must be 2-D, got shape {A.shape}")
    n, m = A.shape
    if n < 1 or m < 1:
        raise ValueError(f"generator matrix must be at least 1x1, got {n}x{m}")
    if not np.isfinite(A).all():
        raise _NonFiniteGenerators("generator matrix has non-finite entries")
    return A


def determinant_count(m, n):
    """Number of n-by-n determinants in the exact volume sum: C(m, n).

    Parameters
    ----------
    m : int
        Number of generators (columns).
    n : int
        Ambient dimension (rows).

    Returns
    -------
    int
        m! / ((m - n)! n!).
    """
    m = int(m)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > m:
        raise ValueError(f"n must not exceed m, got n={n}, m={m}")
    return math.comb(m, n)


def _fold(Y):
    """Y (shape (..., 2, m)) with each 2-D vector turned into the upper
    half-plane, (-x, -y) where y < 0, or y = 0 and x < 0: a sign flip
    leaves |det| unchanged."""
    x, y = Y[..., 0, :], Y[..., 1, :]
    flip = np.where(y != 0, y, x) < 0
    return np.where(flip[..., None, :], -Y, Y)


def _cotangent(x, y):
    """x / |y| of folded vectors, whose descending order is the angle order of
    both 2-D sums: it keeps full relative precision where the angle of a long,
    nearly axis-parallel vector rounds.  y = +0 gives +inf, a zero vector nan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return x / np.abs(y)


def _pair_sums(Y):
    """Sum of |det(y_j, y_k)| over the pairs j < k of each stack of 2-D vectors.

    Y has shape (..., 2, m).  Folded into the upper half-plane
    (:func:`_fold`) and sorted by angle, each det(y_j, y_k) with y_j before
    y_k is nonnegative, and the pair sum is sum_k det(y_1 + ... + y_(k-1), y_k).
    """
    V = _fold(Y)
    x, y = V[..., 0, :], V[..., 1, :]
    order = np.argsort(-_cotangent(x, y), axis=-1)
    x = np.take_along_axis(x, order, axis=-1)
    y = np.take_along_axis(y, order, axis=-1)
    sx = np.cumsum(x, axis=-1)[..., :-1]
    sy = np.cumsum(y, axis=-1)[..., :-1]
    return np.sum(sx * y[..., 1:] - sy * x[..., 1:], axis=-1)


def _eliminate(G, tail):
    """Gaussian elimination with scaled partial pivoting of stacked n-by-k prefixes.

    `tail` is [I | scale], scale the largest |entry| of each row of the
    whole generator matrix (1 for a zero row), appended to every prefix so
    that row swaps carry both.  Row r's pivot candidate is |a_ri| / scale[r],
    so the row of a fast-growing mode does not swamp the small modes' later
    components.  Returns |det| of each prefix's k pivot rows and the 2-by-n
    map S that the same row operations apply to later columns: |det[G, x, y]|
    = |det| * |det(S x, S y)|.  A zero row of G is never a pivot and stays
    exact, so generators in a coordinate hyperplane give exactly zero.
    """
    b, n, k = G.shape
    M = np.empty((b, n, k + n + 1))
    M[:, :, :k] = G
    M[:, :, k:] = tail
    rows = np.arange(b)
    det = np.ones(b)  # the product of the pivots, in column order
    for i in range(k):
        piv = i + (np.abs(M[:, i:, i]) / M[:, i:, -1]).argmax(axis=1)
        M[rows, piv], M[:, i] = M[:, i], M[rows, piv]
        p = M[:, i, i]  # row i is final from here on
        det = det * p if i else p
        # a zero pivot means a zero column below it too: the prefix is flat
        lower = M[:, i + 1:, i] / np.where(p == 0.0, 1.0, p)[:, None]
        M[:, i + 1:, i:-1] -= lower[:, :, None] * M[:, i, None, i:-1]
    return np.abs(det), M[:, k:, k:-1]


def _weighted_pair_sums(Y, w):
    """Sum of w_k |det(y_j, y_k)| over the pairs j < k of each stack of 2-D
    vectors Y (shape (b, 2, L)), online: with the vectors folded into the
    upper half-plane, it is sum_k w_k det(2 D_k - P_k, y_k), where P_k sums
    the y_j with j < k and D_k those with an angle no larger than y_k's.
    The L-by-L masks are built a block of k at a time, of at most
    max(``_CHUNK``, b L) elements each."""
    V = _fold(Y)
    x, y = V[:, 0], V[:, 1]
    b, L = x.shape
    P = np.zeros(V.shape)
    V[:, :, :-1].cumsum(axis=-1, out=P[:, :, 1:])
    cot = _cotangent(x, y)
    step = min(L, max(1, _CHUNK // (b * L)))
    # every j before a block precedes all of its k; within it, j < k above
    # the diagonal
    idx = np.arange(step)
    upper = idx[:, None] < idx
    total = np.zeros(b)
    for k0 in range(0, L, step):
        k1 = min(L, k0 + step)
        mask = cot[:, :k1, None] >= cot[:, None, k0:k1]
        mask[:, k0:] &= upper[:k1 - k0, :k1 - k0]
        Q = 2.0 * (V[:, :, :k1] @ mask) - P[:, :, k0:k1]
        total += (Q[:, 0] * y[:, k0:k1] - Q[:, 1] * x[:, k0:k1]) @ w[k0:k1]
    return total


def _shift_weights(m, r, abs_det):
    """Per-column weights w(q) = sum_(p=0)^(N-1-q) |det A|^p of the Krylov
    matrix of N = m / r blocks of r columns, q the column's block; None
    when a weight is not finite."""
    if r < 1 or m % r:
        raise ValueError(f"krylov: {m} columns are not whole blocks of r = {r}")
    if abs_det < 0:
        raise ValueError(f"krylov: |det A| must be >= 0, got {abs_det}")
    with np.errstate(over="ignore", invalid="ignore"):
        w = (float(abs_det) ** np.arange(m // r)).cumsum()[::-1]
    # w[0] sums every power, so it is finite exactly when all of them are
    return w.repeat(r) if math.isfinite(w[0]) else None


def unit_cube_volume(Z, *, krylov=None):
    """Exact volume of the zonotope with coefficients in [0, 1].

    The sum of |det| over the n-column submatrices of Z, in C(m, n - 2)
    small eliminations and O(m log m) sorts rather than C(m, n)
    determinants.  Each sorted subset is a prefix P of n - 2 columns and a
    pair j < k after them; eliminating Z_P (:func:`_eliminate`) gives
    |det[Z_P, z_j, z_k]| = |det| * |det(S z_j, S z_k)|, so the pairs of a
    prefix form one angle-sorted 2-D sum (:func:`_pair_sums`).  Prefixes
    run in batches of at most ``_CHUNK`` elements, whose partials are
    combined with exact (Shewchuk) summation.  Rank-deficient Z gives
    volume 0 up to rounding (a flat zonotope), not an error.

    ``krylov=(r, abs_det)`` declares Z = [B, AB, ..., A^(N-1)B] with r
    columns in B and abs_det = |det A|.  A subset whose first block is p
    is A^p times a subset S' that holds a first-block column, so the sum
    is that over the S' alone, each weighted by w(q) = sum_(p=0)^(N-1-q)
    |det A|^p, q the last block of S'.  For n >= 3 that visits the r
    C(m, n - 3) prefixes that start in the first block, each finished by
    one weighted online 2-D sum in O(m^2) vector work
    (:func:`_weighted_pair_sums`); for n = 2 it is
    sum_c sum_(k > c) w_k |det(z_c, z_k)| over the first-block columns c.
    The identity holds for the exact Krylov matrix, so its callers declare
    it only for accurately built ones; the narrow generators (least
    accurate at their anchor) and the test references take the generic
    sum.  n = 1, and weights that overflow (unstable A, large N), also
    take the generic sum.

    Parameters
    ----------
    Z : array_like, shape (n, m)
        Generator matrix; columns are generators.
    krylov : (int, float), optional
        Block width r and |det A| of a Krylov generator matrix.

    Returns
    -------
    float
        Nonnegative volume; 0.0 when m < n or rank(Z) < n.

    Raises
    ------
    VolumeDomainError
        When rounding cancels the sum to a negative total.
    """
    return _unit_cube_volume(_as_generator_matrix(Z), krylov)


def _unit_cube_volume(A, krylov):
    """unit_cube_volume of a generator matrix _as_generator_matrix has checked."""
    n, m = A.shape
    if m < n:
        return 0.0
    if n == 1:
        return math.fsum(np.abs(A[0]))
    w = None if krylov is None else _shift_weights(m, *krylov)
    if w is None:
        # descending prefixes, so that a batch spans few values of max(P);
        # a prefix needs two later columns, so max(P) <= m - 3
        total = _prefix_sum(A, combinations(range(m - 3, -1, -1), n - 2),
                            _CHUNK // (n * m))
    elif n == 2:
        # the pairs c < k with c in the first block
        total = math.fsum(float(np.abs(A[0, c] * A[1, c + 1:] - A[1, c] * A[0, c + 1:])
                                @ w[c + 1:]) for c in range(krylov[0]))
    else:
        # a first-block column and n - 3 later ones, descending
        firsts = range(min(krylov[0], m - 2))
        prefixes = (rest + (c,) for c in firsts
                    for rest in combinations(range(m - 3, c, -1), n - 3))
        total = _prefix_sum(A, prefixes, _CHUNK // (m * m), w)
    if total < 0.0:
        raise VolumeDomainError(
            f"the determinant sum cancelled to a negative total ({total:.3e}): "
            f"rounding exceeds the volume")
    return total


def _prefix_sum(A, prefixes, per_batch, w=None):
    """Sum over the prefixes P (tuples of n - 2 columns) of |det| times the
    pair sum of the 2-D images of the columns after max(P), weighted by the
    per-column weights `w` if given, in batches of `per_batch` prefixes,
    with exact summation of the partials."""
    n, m = A.shape
    tail = np.eye(n, n + 1)  # [I | scale] for _eliminate
    scale = tail[:, n]
    np.abs(A).max(axis=1, out=scale)
    scale[scale == 0.0] = 1.0
    partials = []
    while batch := list(islice(prefixes, max(1, per_batch))):
        P = np.asarray(batch, dtype=np.intp).reshape(len(batch), n - 2)
        last = P.max(axis=1, initial=-1)
        lo = int(last.min()) + 1
        det, S = _eliminate(A.T[P].transpose(0, 2, 1), tail)
        Y = S @ A[:, lo:]
        if last.max() >= lo:
            # a pair lies after its prefix: zero the columns up to max(P)
            done = np.arange(lo, m) <= last[:, None]
            Y = np.where(done[:, None, :], 0.0, Y)
        pairs = _pair_sums(Y) if w is None else _weighted_pair_sums(Y, w[lo:])
        partials.append(float(det @ pairs))
    return math.fsum(partials)


def symmetric_volume(Z, *, krylov=None):
    """Volume of the zonotope with coefficients in [-1, 1].

    Each generator segment is twice as long as in the unit-cube convention,
    so this is 2**n times :func:`unit_cube_volume`, with the same `krylov`
    structure.  Reachable regions of systems driven by inputs with
    ||u||_inf <= 1 use this convention.
    """
    A = _as_generator_matrix(Z)
    return float(2.0 ** A.shape[0]) * _unit_cube_volume(A, krylov)
