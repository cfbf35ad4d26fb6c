"""Exact zonotope volume from a generator matrix.

A zonotope spanned by the columns z_1, ..., z_m of an n-by-m generator
matrix is the set of points sum_i c_i z_i with every coefficient c_i in a
unit interval.  Its n-dimensional volume is the sum, over all n-element
column subsets, of the absolute determinant of the selected n-by-n
submatrix.  That sum is the ground truth every faster route in this
package is checked against; :func:`unit_cube_volume` evaluates it without
visiting the subsets one by one (Gover & Krikorian, LAA 433, 2010).
"""

import math
from itertools import combinations, islice

import numpy as np

__all__ = [
    "determinant_count",
    "unit_cube_volume",
    "symmetric_volume",
]

# Elements (prefixes x n x m) per vectorized batch of subset prefixes.
_CHUNK = 65536


def _as_generator_matrix(Z):
    """Validate and convert a generator matrix to a float ndarray.

    Accepts anything array-like with shape (n, m), n >= 1 and m >= 1.
    Raises ValueError for empty shapes or non-finite entries.
    """
    A = np.asarray(Z, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"generator matrix must be 2-D, got shape {A.shape}")
    n, m = A.shape
    if n < 1 or m < 1:
        raise ValueError(f"generator matrix must be at least 1x1, got {n}x{m}")
    if not np.all(np.isfinite(A)):
        raise ValueError("generator matrix has non-finite entries")
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


def _pair_sums(Y):
    """Sum of |det(y_j, y_k)| over the pairs j < k of each stack of 2-D vectors.

    Y has shape (..., 2, m).  A sign flip leaves |det| unchanged, so every
    vector is folded into the upper half-plane; sorted by angle, each
    det(y_j, y_k) with y_j before y_k is then nonnegative, and the pair sum
    is sum_k det(y_1 + ... + y_(k-1), y_k).
    """
    x, y = Y[..., 0, :], Y[..., 1, :]
    flip = (y < 0) | ((y == 0) & (x < 0))
    x = np.where(flip, -x, x)
    y = np.where(flip, -y, y)
    order = np.argsort(np.arctan2(y, x), axis=-1)
    x = np.take_along_axis(x, order, axis=-1)
    y = np.take_along_axis(y, order, axis=-1)
    sx = np.cumsum(x, axis=-1)[..., :-1]
    sy = np.cumsum(y, axis=-1)[..., :-1]
    return np.sum(sx * y[..., 1:] - sy * x[..., 1:], axis=-1)


def _eliminate(G):
    """Gaussian elimination with partial pivoting of stacked n-by-k prefixes.

    Returns |det| of each prefix's k pivot rows and the 2-by-n map S that
    the same row operations apply to later columns: |det[G, x, y]| =
    |det| * |det(S x, S y)|.  A zero row of G is never a pivot and stays
    exact, so generators in a coordinate hyperplane give exactly zero.
    """
    b, n, k = G.shape
    M = np.concatenate([G, np.broadcast_to(np.eye(n), (b, n, n))], axis=2)
    rows = np.arange(b)
    for i in range(k):
        piv = i + np.argmax(np.abs(M[:, i:, i]), axis=1)
        M[rows, piv], M[:, i] = M[:, i], M[rows, piv]
        p = M[:, i, i]
        # a zero pivot means a zero column below it too: the prefix is flat
        lower = M[:, i + 1:, i] / np.where(p == 0.0, 1.0, p)[:, None]
        M[:, i + 1:, i:] -= lower[:, :, None] * M[:, i, None, i:]
    det = np.abs(np.prod(np.diagonal(M[:, :k, :k], axis1=1, axis2=2), axis=1))
    return det, M[:, k:, k:]


def unit_cube_volume(Z):
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

    Parameters
    ----------
    Z : array_like, shape (n, m)
        Generator matrix; columns are generators.

    Returns
    -------
    float
        Nonnegative volume; 0.0 when m < n or rank(Z) < n.
    """
    A = _as_generator_matrix(Z)
    n, m = A.shape
    if m < n:
        return 0.0
    if n == 1:
        return math.fsum(np.abs(A[0]))
    k = n - 2
    # Prefixes as descending tuples, so that a batch spans few values of
    # max(P); a prefix needs two later columns, so max(P) <= m - 3.
    prefixes = combinations(range(m - 3, -1, -1), k)
    per_batch = max(1, _CHUNK // (n * m))
    partials = []
    while batch := list(islice(prefixes, per_batch)):
        P = np.asarray(batch, dtype=np.intp).reshape(len(batch), k)
        last = P.max(axis=1, initial=-1)
        lo = int(last.min()) + 1
        det, S = _eliminate(A.T[P].transpose(0, 2, 1))
        Y = S @ A[:, lo:]
        # a pair lies after its prefix: zero the columns up to max(P)
        done = np.arange(lo, m) <= last[:, None]
        Y = np.where(done[:, None, :], 0.0, Y)
        partials.append(float(det @ _pair_sums(Y)))
    return math.fsum(partials)


def symmetric_volume(Z):
    """Volume of the zonotope with coefficients in [-1, 1].

    Each generator segment is twice as long as in the unit-cube convention,
    so this is 2**n times :func:`unit_cube_volume`.  Reachable regions of
    systems driven by inputs with ||u||_inf <= 1 use this convention.
    """
    A = _as_generator_matrix(Z)
    return float(2.0 ** A.shape[0]) * unit_cube_volume(A)
