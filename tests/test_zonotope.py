"""Exact determinant-sum volume and determinant counts."""

import math
from itertools import combinations

import numpy as np
import pytest

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

    def test_chunked_path_matches_unchunked(self):
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((4, 12))
        assert unit_cube_volume(Z, chunk=17) == pytest.approx(
            unit_cube_volume(Z), rel=1e-13)

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
