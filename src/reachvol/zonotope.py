"""Exact zonotope volume from a generator matrix.

A zonotope spanned by the columns z_1, ..., z_m of an n-by-m generator
matrix is the set of points sum_i c_i z_i with every coefficient c_i in a
unit interval.  Its n-dimensional volume is the sum, over all n-element
column subsets, of the absolute determinant of the selected n-by-n
submatrix.  That combinatorial sum is the ground truth every faster route
in this package is checked against, so this module keeps it exact, streams
the subset enumeration, and controls rounding in the long accumulation.
"""

import math
from itertools import combinations, islice

import numpy as np

__all__ = [
    "determinant_count",
    "unit_cube_volume",
    "symmetric_volume",
]

# Number of determinants evaluated per vectorized batch on the generic path.
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


def _det_sum_dim1(Z):
    return [float(np.sum(np.abs(Z[0])))]


def _det_sum_dim2(Z, chunk=512):
    # |det [z_i z_j]| = |x_i y_j - x_j y_i|; row-chunked over i, columns j > i
    x, y = Z[0], Z[1]
    m = x.size
    cols = np.arange(m)
    partials = []
    for a in range(0, m - 1, chunk):
        b = min(a + chunk, m - 1)
        rows = np.arange(a, b)
        D = x[a:b, None] * y[None, :] - y[a:b, None] * x[None, :]
        mask = cols[None, :] > rows[:, None]
        partials.append(float(np.abs(np.where(mask, D, 0.0)).sum()))
    return partials


def _det_sum_dim3(Z):
    # scalar triple products g_i . (g_j x g_k); pair cross products computed
    # once, pairs with first index > i form a contiguous lexicographic tail
    m = Z.shape[1]
    if m < 3:
        return [0.0]
    blocks = []
    for j in range(m - 1):
        blocks.append(np.cross(Z[:, j], Z[:, j + 1 :].T))
    P = np.vstack(blocks)  # C(m,2) x 3, lex order by (j, k)
    offsets = np.concatenate([[0], np.cumsum(np.arange(m - 1, 0, -1))])
    partials = []
    for i in range(m - 2):
        dots = P[offsets[i + 1] :] @ Z[:, i]
        partials.append(float(np.abs(dots).sum()))
    return partials


def _det_sum_generic(Z):
    n, m = Z.shape
    ZT = np.ascontiguousarray(Z.T)
    it = combinations(range(m), n)
    partials = []
    while True:
        batch = list(islice(it, _CHUNK))
        if not batch:
            break
        idx = np.asarray(batch, dtype=np.intp)
        dets = np.linalg.det(ZT[idx])
        partials.append(float(np.abs(dets).sum()))
    return partials


def unit_cube_volume(Z):
    """Exact volume of the zonotope with coefficients in [0, 1].

    Sums |det| over every n-column submatrix of Z.  Rank-deficient Z gives
    volume 0 (a flat zonotope), not an error.  Accumulation is chunked:
    within a chunk numpy reduces pairwise, and chunk partials are combined
    with exact (Shewchuk) summation, which bounds rounding drift when the
    subset count is large.

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
        partials = _det_sum_dim1(A)
    elif n == 2:
        partials = _det_sum_dim2(A)
    elif n == 3:
        partials = _det_sum_dim3(A)
    else:
        partials = _det_sum_generic(A)
    return math.fsum(partials)


def symmetric_volume(Z):
    """Volume of the zonotope with coefficients in [-1, 1].

    Each generator segment is twice as long as in the unit-cube convention,
    so this is 2**n times :func:`unit_cube_volume`.  Reachable regions of
    systems driven by inputs with ||u||_inf <= 1 use this convention.
    """
    A = _as_generator_matrix(Z)
    return float(2.0 ** A.shape[0]) * unit_cube_volume(A)
