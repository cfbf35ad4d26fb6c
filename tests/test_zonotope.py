"""Exact determinant-sum volume and determinant counts."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachvol import zonotope
from reachvol.zonotope import determinant_count, symmetric_volume, unit_cube_volume


class TestDeterminantCount:
    @pytest.mark.parametrize("m,n,expected", [(5, 5, 1), (10, 4, 210), (12, 3, 220)])
    def test_known_counts(self, m, n, expected):
        assert determinant_count(m, n) == expected

    def test_rejects_n_above_m(self):
        with pytest.raises(ValueError):
            determinant_count(3, 4)

    def test_matches_enumeration(self):
        for m in range(1, 9):
            for n in range(1, m + 1):
                assert determinant_count(m, n) == \
                    len(list(combinations(range(m), n)))


def _brute_volume(Z):
    """Independent reference: plain itertools + np.linalg.det, no chunking."""
    Z = np.asarray(Z, float)
    n, m = Z.shape
    if m < n:
        return 0.0
    return math.fsum(abs(np.linalg.det(Z[:, list(c)]))
                     for c in combinations(range(m), n))


def _vectorized_volume(Z):
    """Independent reference for large m: one bilinear form per leading
    column for n = 2 and 3, one stacked np.linalg.det for n >= 4."""
    Z = np.asarray(Z, float)
    n, m = Z.shape
    if n == 2:
        D = np.outer(Z[0], Z[1]) - np.outer(Z[1], Z[0])
        return math.fsum(np.triu(np.abs(D), 1).sum(axis=1))
    if n == 3:
        parts = []
        for i in range(m - 2):
            W = Z[:, i + 1:]
            # entry (j, k) is w_j . (z_i x w_k) = -det(z_i, w_j, w_k)
            D = W.T @ np.cross(Z[:, i], W.T).T
            parts.append(np.triu(np.abs(D), 1).sum())
        return math.fsum(parts)
    idx = np.array(list(combinations(range(m), n)), dtype=np.intp)
    return math.fsum(np.abs(np.linalg.det(Z.T[idx])))


def _lightly_damped_generators(n, m, seed):
    """[b, Ab, ..., A^(m-1) b] for slowly decaying rotations, as the oracle
    workload sends: late columns turn slowly and shrink slowly."""
    rng = np.random.default_rng(seed)
    M = np.zeros((n, n))
    for k in range(n // 2):
        th, rho = rng.uniform(0.05, 0.6), rng.uniform(0.9, 0.995)
        M[2 * k:2 * k + 2, 2 * k:2 * k + 2] = rho * np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    if n % 2:
        M[-1, -1] = rng.uniform(-0.9, 0.9)
    V = rng.standard_normal((n, n))
    A = V @ M @ np.linalg.inv(V)
    cols = [rng.standard_normal(n)]
    for _ in range(m - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


@st.composite
def _generator_sets(draw):
    """Adversarial generator matrices, with whether each is flat (rank < n)."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, 12))
    kind = draw(st.sampled_from(["powers", "duplicates", "zeros", "scales", "flat"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Z = rng.standard_normal((n, m))
    if kind == "powers":
        # modal power columns b_i lambda_i^k: one slow mode near 1 dominates
        # the late columns, which become nearly parallel; the other modes
        # are spread out below it
        top = 1.0 - draw(st.floats(1e-4, 1e-2))
        lam = top - 0.3 * np.arange(n)
        Z = Z[:, :1] * lam[:, None] ** np.arange(m)
    elif kind == "duplicates":
        # exact and negated copies of other columns; n distinct ones stay,
        # so only the subsets holding a copy are flat
        for k in rng.choice(m, size=m - n, replace=False):
            Z[:, k] = rng.choice([-1.0, 1.0]) * Z[:, rng.integers(m)]
    elif kind == "zeros":
        Z[:, rng.choice(m, size=rng.integers(1, m + 1), replace=False)] = 0.0
    elif kind == "scales":
        Z *= 10.0 ** rng.uniform(-6.0, 6.0, size=m)
    else:
        # generators confined to a coordinate hyperplane
        Z[rng.integers(n)] = 0.0
    return Z, kind == "flat" or np.linalg.matrix_rank(Z) < n


class TestUnitCubeVolume:
    def test_identity_square(self):
        assert unit_cube_volume(np.eye(2)) == pytest.approx(1.0, abs=0)

    def test_three_generators_hand_enumeration(self):
        # |det[e1 e2]| + |det[e1 (1,1)]| + |det[e2 (1,1)]| = 1 + 1 + 1
        assert unit_cube_volume([[1, 0, 1], [0, 1, 1]]) == pytest.approx(3.0)

    def test_rank_deficient_is_zero(self):
        assert unit_cube_volume([[1, 2], [2, 4]]) == pytest.approx(0.0, abs=1e-14)

    def test_fewer_generators_than_dimensions(self):
        assert unit_cube_volume([[1.0], [2.0]]) == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            unit_cube_volume([[1.0, np.nan]])

    @pytest.mark.parametrize("n,m", [(1, 7), (2, 9), (3, 8), (4, 7), (5, 6)])
    def test_matches_reference_enumeration(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        Z = rng.standard_normal((n, m))
        assert unit_cube_volume(Z) == pytest.approx(_brute_volume(Z), rel=1e-12)

    def test_chunked_path_matches_unchunked(self, monkeypatch):
        # _CHUNK below n * m puts each prefix in a batch of its own; at
        # n = 2 the one (empty) prefix is the whole sum
        rng = np.random.default_rng(7)
        cases = [rng.standard_normal(shape) for shape in ((4, 12), (3, 12), (2, 40))]
        unchunked = [unit_cube_volume(Z) for Z in cases]
        monkeypatch.setattr(zonotope, "_CHUNK", 17)
        for Z, ref in zip(cases, unchunked):
            assert unit_cube_volume(Z) == pytest.approx(ref, rel=1e-13)

    @given(_generator_sets())
    @settings(max_examples=200, deadline=None)
    def test_adversarial_sets_against_reference_enumeration(self, case):
        Z, flat = case
        got, ref = unit_cube_volume(Z), _brute_volume(Z)
        if flat:
            assert abs(ref) <= 1e-14
            assert abs(got) <= 1e-14
        else:
            assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n,m", [(2, 2000), (3, 400), (4, 30)])
    def test_workload_sizes_against_vectorized_reference(self, n, m):
        Z = _lightly_damped_generators(n, m, seed=10 * n)
        ref = _vectorized_volume(Z)
        assert abs(unit_cube_volume(Z) - ref) <= 1e-12 * ref

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((3, 7))
        ref = unit_cube_volume(Z)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(7)
            assert unit_cube_volume(Z[:, perm]) == pytest.approx(ref, rel=1e-12)

    def test_whole_matrix_scaling(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((3, 6))
        ref = unit_cube_volume(Z)
        for alpha in (0.5, -1.3, 2.0):
            assert unit_cube_volume(alpha * Z) == pytest.approx(
                abs(alpha) ** 3 * ref, rel=1e-12)

    def test_single_column_scaling_bound(self):
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((3, 6))
        ref = unit_cube_volume(Z)
        for alpha in (0.2, 1.0, 3.5):
            scaled = Z.copy()
            scaled[:, 0] *= alpha
            assert unit_cube_volume(scaled) <= max(1.0, abs(alpha)) * ref + 1e-12

    def test_left_multiplication_scales_by_abs_det(self):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((3, 7))
        W = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        assert unit_cube_volume(W @ Z) == pytest.approx(
            abs(np.linalg.det(W)) * unit_cube_volume(Z), rel=1e-11)

    def test_appending_column_never_decreases(self):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((3, 3))
        vol = unit_cube_volume(Z)
        for _ in range(4):
            Z = np.hstack([Z, rng.standard_normal((3, 1))])
            nxt = unit_cube_volume(Z)
            assert nxt >= vol - 1e-12
            vol = nxt


class TestSymmetricVolume:
    def test_identity_square(self):
        assert symmetric_volume(np.eye(2)) == pytest.approx(4.0)

    def test_scalar_interval(self):
        assert symmetric_volume([[0.5]]) == pytest.approx(1.0)

    def test_doubles_each_generator(self):
        assert symmetric_volume([[1, 0, 1], [0, 1, 1]]) == pytest.approx(12.0)
