"""State-space models, reachability generators, and spectral structure.

Covers the plumbing between a discrete-time model x_{k+1} = A x_k + B u_k
and the volume machinery: building the generator matrices of reachable and
narrow controllable regions, diagonalizing single-input systems into
(eigenvalues, unit left eigenvectors, modal gains), and classifying spectra
against the hypotheses of the closed-form volume routes.
"""

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "EPS_DISTINCT",
    "EPS_SING",
    "EPS_COMPLEX",
    "SpectrumClass",
    "VolumeDomainError",
    "SpectrumError",
    "SingularFactorError",
    "UnboundedRegionError",
    "StateSpaceModel",
    "EigenStructure",
    "load_model",
    "reachability_generators",
    "narrow_generators",
    "diagonalize",
    "classify_spectrum",
]

# Tolerances of the domain checks.  EPS_DISTINCT and EPS_COMPLEX are
# relative to the spectral radius (at least 1); EPS_SING is absolute.
EPS_DISTINCT = 1e-8
EPS_SING = 1e-10
EPS_COMPLEX = 1e-10


class SpectrumClass(Enum):
    """Classification of a spectrum against the analytic-route hypotheses."""

    ALL_POSITIVE_DISTINCT = "AllPositiveDistinct"
    ALL_NEGATIVE_DISTINCT = "AllNegativeDistinct"
    MIXED_SIGN = "MixedSign"
    DEGENERATE = "Degenerate"
    COMPLEX = "Complex"
    NEAR_SINGULAR_FACTOR = "NearSingularFactor"
    # set by the expansion kernel, not by classify_spectrum: the terms cancel
    # past what its precision cap resolves
    ILL_CONDITIONED = "IllConditioned"

    def __str__(self):
        return self.value


class VolumeDomainError(Exception):
    """A request that is outside the mathematical domain of an operation."""


class SpectrumError(VolumeDomainError):
    """An eigenvalue-route hypothesis failed; carries the classification."""

    def __init__(self, classification, message):
        super().__init__(f"{classification}: {message}")
        self.classification = classification


class SingularFactorError(SpectrumError):
    """A denominator of a closed-form factor is within tolerance of zero."""

    def __init__(self, message):
        super().__init__(SpectrumClass.NEAR_SINGULAR_FACTOR, message)


class UnboundedRegionError(VolumeDomainError):
    """The requested region has no finite volume."""


@dataclass(frozen=True)
class StateSpaceModel:
    """Discrete-time pair (A, B): x_{k+1} = A x_k + B u_k.

    A is n x n, B is n x r.  Entries must be finite; B given as a flat
    vector is treated as a single-input column.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError(
                f"B must have {A.shape[0]} rows to match A, got shape {B.shape}"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValueError("model matrices must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def r(self):
        return self.B.shape[1]


@dataclass(frozen=True)
class EigenStructure:
    """Spectral form of a single-input model.

    eigenvalues : real spectrum sorted ascending
    left_vectors : n x n matrix whose row i is the left eigenvector q_i
    modal_gains : q_i b for each mode (the input's coupling into mode i)

    The row scaling of `left_vectors` is immaterial to any volume computed
    from this structure: rescaling row i by alpha multiplies
    |det(left_vectors^-1)| by 1/|alpha| and |modal_gains[i]| by |alpha|.
    """

    eigenvalues: np.ndarray
    left_vectors: np.ndarray
    modal_gains: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float).reshape(-1)
        W = np.asarray(self.left_vectors, dtype=float)
        g = np.asarray(self.modal_gains, dtype=float).reshape(-1)
        n = lam.size
        if W.shape != (n, n):
            raise ValueError(f"left_vectors must be {n}x{n}, got {W.shape}")
        if g.size != n:
            raise ValueError(f"expected {n} modal gains, got {g.size}")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(W)) and np.all(np.isfinite(g))):
            raise ValueError("eigenstructure entries must be finite")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "left_vectors", W)
        object.__setattr__(self, "modal_gains", g)

    @classmethod
    def from_spectrum(cls, eigenvalues, modal_gains=None):
        """Build the already-diagonal structure (left vectors = identity).

        Eigenvalues are sorted ascending with gains permuted alongside.
        """
        lam = np.asarray(eigenvalues, dtype=float).reshape(-1)
        order = np.argsort(lam)
        if modal_gains is None:
            gains = np.ones_like(lam)
        else:
            gains = np.asarray(modal_gains, dtype=float).reshape(-1)
            if gains.size != lam.size:
                raise ValueError("need one modal gain per eigenvalue")
            gains = gains[order]
        return cls(lam[order], np.eye(lam.size), gains)

    @property
    def n(self):
        return self.eigenvalues.size

    r = 1  # inputs: an eigenstructure describes a single-input model

    @property
    def det_inverse_abs(self):
        """|det(left_vectors^-1)|, the coordinate-change volume factor."""
        d = float(np.linalg.det(self.left_vectors))
        if d == 0.0:
            raise ValueError("left eigenvector matrix is singular")
        return 1.0 / abs(d)

    @property
    def volume_prefactor(self):
        """2**n |det(left_vectors^-1) prod(modal_gains)|.

        Multiplies the normalized (spectrum-only) volume sum to give the
        region volume in original coordinates.
        """
        return float(2.0 ** self.n) * self.det_inverse_abs * abs(
            float(np.prod(self.modal_gains))
        )

    def to_model(self):
        """Reconstruct the (A, B) pair realizing this spectral data."""
        W = self.left_vectors
        Winv = np.linalg.inv(W)
        A = Winv @ np.diag(self.eigenvalues) @ W
        B = Winv @ self.modal_gains.reshape(-1, 1)
        return StateSpaceModel(A, B)


def load_model(source):
    """Load a model from JSON: {"A": [[...]], "B": [[...]]} or
    {"lambda": [...], "beta": [...]}.

    `source` may be a path or an already-parsed dict.  Matrix form returns
    a StateSpaceModel; spectral form returns an EigenStructure with
    identity left vectors.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError("model file must contain a JSON object")
    if "A" in data and "B" in data:
        return StateSpaceModel(np.asarray(data["A"], float), np.asarray(data["B"], float))
    if "lambda" in data and "beta" in data:
        return EigenStructure.from_spectrum(data["lambda"], data["beta"])
    raise ValueError('model object must have fields {"A","B"} or {"lambda","beta"}')


def reachability_generators(model, N):
    """Generators of the N-step reachable region: [B, AB, ..., A^(N-1)B].

    Built by repeated multiplication of the previous block by A; returns an
    n x (r*N) matrix whose symmetric-coefficient zonotope is the set of
    states reachable from the origin in N steps under ||u_k||_inf <= 1.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    blocks = [model.B]
    for _ in range(int(N) - 1):
        blocks.append(model.A @ blocks[-1])
    return np.hstack(blocks)


def _nonsingular_det(model):
    """|det A|, or VolumeDomainError when A is singular to EPS_SING.

    The determinant test is scaled by the matrix norm so the threshold is
    size-independent.
    """
    A = model.A
    scale = np.linalg.norm(A, 2)
    det = abs(np.linalg.det(A))
    if scale == 0.0 or det <= EPS_SING * scale ** model.n:
        raise VolumeDomainError("narrow region undefined for singular A")
    return det


def narrow_generators(model, N):
    """Generators of the N-step narrow controllable (recovery) region.

    Returns [A^-N B, A^-(N-1) B, ..., A^-1 B], the generators of the set of
    states that bounded inputs can drive to the origin in N steps.  Requires
    invertible A.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    A = model.A
    _nonsingular_det(model)
    lu_solve = np.linalg.solve
    blocks = [lu_solve(A, model.B)]  # A^-1 B
    for _ in range(int(N) - 1):
        blocks.append(lu_solve(A, blocks[-1]))
    return np.hstack(blocks[::-1])


def _real_ascending(w):
    """The complex and distinct tests: (real parts ascending, their order, defect),
    defect COMPLEX, DEGENERATE or None.  Both tolerances are relative to the
    spectral radius, at least 1."""
    radius = max(float(np.max(np.abs(w))), 1.0)
    if np.iscomplexobj(w):
        if np.max(np.abs(w.imag)) > EPS_COMPLEX * radius:
            return None, None, SpectrumClass.COMPLEX
        w = w.real
    order = np.argsort(w)
    lam = w[order].astype(float)
    if lam.size > 1 and np.min(np.diff(lam)) < EPS_DISTINCT * radius:
        return lam, order, SpectrumClass.DEGENERATE
    return lam, order, None


def classify_spectrum(lambdas, mode="discrete"):
    """Classify a spectrum for the closed-form volume routes.

    Checks run in priority order Complex > Degenerate > NearSingularFactor >
    MixedSign, and only then the admissible classes.  `mode` selects which
    factor denominators are checked for singularity: "discrete" guards
    1 - lambda_i and 1 - lambda_i*lambda_j, "continuous" guards lambda_i
    and the pairwise sums lambda_i + lambda_j.
    """
    if mode not in ("discrete", "continuous"):
        raise ValueError(f"unknown mode {mode!r}")

    arr = np.asarray(lambdas)
    if arr.size == 0:
        raise ValueError("empty spectrum")
    lam, _, defect = _real_ascending(arr)
    if defect is not None:
        return defect
    n = lam.size

    if mode == "discrete":
        if np.any(np.abs(1.0 - lam) < EPS_SING):
            return SpectrumClass.NEAR_SINGULAR_FACTOR
        prods = np.outer(lam, lam)[np.triu_indices(n, 1)]
        if prods.size and np.any(np.abs(1.0 - prods) < EPS_SING):
            return SpectrumClass.NEAR_SINGULAR_FACTOR
    else:
        if np.any(np.abs(lam) < EPS_SING):
            return SpectrumClass.NEAR_SINGULAR_FACTOR
        sums = np.add.outer(lam, lam)[np.triu_indices(n, 1)]
        if sums.size and np.any(np.abs(sums) < EPS_SING):
            return SpectrumClass.NEAR_SINGULAR_FACTOR

    if lam[0] > 0.0:
        return SpectrumClass.ALL_POSITIVE_DISTINCT
    if lam[-1] < 0.0:
        return SpectrumClass.ALL_NEGATIVE_DISTINCT
    return SpectrumClass.MIXED_SIGN


def diagonalize(model):
    """Decompose a single-input model into spectral form.

    Left eigenvectors come from the eigendecomposition of A transposed;
    rows are scaled to unit Euclidean norm with the largest-magnitude
    component made positive, eigenvalues are sorted ascending, and the same
    permutation is applied to the rows and the modal gains.

    Raises
    ------
    ValueError
        If the model has more than one input (the closed-form routes need
        a single input column).
    SpectrumError
        Classification Complex for a genuinely complex pair, Degenerate
        for a repeated eigenvalue.
    """
    if model.r != 1:
        raise ValueError(
            f"diagonalize requires a single input column, got r={model.r}"
        )
    w, v = np.linalg.eig(model.A.T)
    lam, order, defect = _real_ascending(w)
    if defect is SpectrumClass.COMPLEX:
        raise SpectrumError(defect, "complex eigenvalue pair detected")
    if defect is SpectrumClass.DEGENERATE:
        raise SpectrumError(defect, "repeated eigenvalue detected")
    W = np.real(v).T[order]
    W = W / np.linalg.norm(W, axis=1, keepdims=True)
    # canonical sign: largest-|entry| component positive, for reproducibility
    lead = np.take_along_axis(W, np.argmax(np.abs(W), axis=1)[:, None], axis=1)
    W = W * np.sign(lead)
    gains = (W @ model.B).reshape(-1)
    return EigenStructure(lam, W, gains)

