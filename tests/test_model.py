"""Model handling: generators, diagonalization, classification, transforms."""

import numpy as np
import pytest

from reachvol.model import (
    EigenStructure,
    SpectrumClass,
    SpectrumError,
    StateSpaceModel,
    VolumeDomainError,
    classify_spectrum,
    diagonalize,
    load_model,
    narrow_generators,
    reachability_generators,
)
from reachvol.sampling import random_invertible, random_single_input, random_spectrum
from reachvol.zonotope import symmetric_volume


@pytest.fixture
def companion_model():
    # eigenvalues 0.3 and 0.4
    return StateSpaceModel([[0.0, 1.0], [-0.12, 0.7]], [[0.0], [1.0]])


class TestStateSpaceModel:
    def test_flat_input_becomes_column(self):
        m = StateSpaceModel(np.eye(2), [1.0, 2.0])
        assert m.B.shape == (2, 1)
        assert m.r == 1

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            StateSpaceModel(np.eye(2), np.ones((3, 1)))

    def test_rejects_non_square_A(self):
        with pytest.raises(ValueError):
            StateSpaceModel(np.ones((2, 3)), np.ones((2, 1)))


class TestReachabilityGenerators:
    def test_identity_powers(self):
        m = StateSpaceModel(np.eye(2), [[1.0], [0.0]])
        P = reachability_generators(m, 3)
        assert np.allclose(P, [[1, 1, 1], [0, 0, 0]])

    def test_one_multiplication(self):
        m = StateSpaceModel(np.diag([0.5, 0.8]), [[1.0], [1.0]])
        assert np.allclose(reachability_generators(m, 2), [[1, 0.5], [1, 0.8]])

    def test_companion_iteration(self, companion_model):
        P = reachability_generators(companion_model, 3)
        assert np.allclose(P, [[0, 1, 0.7], [1, 0.7, 0.37]])

    def test_block_recursion_identity(self, companion_model):
        for N in (1, 2, 5):
            P = reachability_generators(companion_model, N)
            P_next = reachability_generators(companion_model, N + 1)
            stacked = np.hstack([companion_model.B, companion_model.A @ P])
            assert np.allclose(P_next, stacked)

    def test_multi_input_block_layout(self):
        rng = np.random.default_rng(0)
        m = StateSpaceModel(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))
        P = reachability_generators(m, 3)
        assert P.shape == (3, 6)
        assert np.allclose(P[:, 4:6], m.A @ m.A @ m.B)


class TestNarrowGenerators:
    def test_scalar_inverse_powers(self):
        m = StateSpaceModel([[2.0]], [[1.0]])
        assert np.allclose(narrow_generators(m, 2), [[0.25, 0.5]])

    def test_single_step(self):
        m = StateSpaceModel(np.diag([0.5, 0.8]), [[1.0], [1.0]])
        assert np.allclose(narrow_generators(m, 1), [[2.0], [1.25]])

    def test_singular_A_rejected(self):
        m = StateSpaceModel([[1.0, 0.0], [0.0, 0.0]], [[1.0], [1.0]])
        with pytest.raises(VolumeDomainError, match="singular"):
            narrow_generators(m, 2)

    def test_duality_of_both_constructions(self):
        # narrow region of (A, B) = A^-1 (reachable region of (A^-1, B))
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            A = random_invertible(rng, n)
            B = rng.uniform(-1, 1, (n, int(rng.integers(1, 3))))
            N = int(rng.integers(1, 8))
            model = StateSpaceModel(A, B)
            inv_model = StateSpaceModel(np.linalg.inv(A), B)
            lhs = symmetric_volume(narrow_generators(model, N))
            rhs = symmetric_volume(reachability_generators(inv_model, N)) \
                / abs(np.linalg.det(A))
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestDiagonalize:
    def test_already_diagonal(self):
        m = StateSpaceModel(np.diag([0.5, 0.8]), [[1.0], [1.0]])
        eig = diagonalize(m)
        assert np.allclose(eig.eigenvalues, [0.5, 0.8])
        assert np.allclose(eig.left_vectors, np.eye(2))
        assert np.allclose(eig.modal_gains, [1.0, 1.0])

    def test_companion_spectrum_and_similarity(self, companion_model):
        eig = diagonalize(companion_model)
        assert np.allclose(eig.eigenvalues, [0.3, 0.4], atol=1e-12)
        W = eig.left_vectors
        D = W @ companion_model.A @ np.linalg.inv(W)
        assert np.allclose(D, np.diag(eig.eigenvalues), atol=1e-10)
        assert np.allclose(eig.modal_gains, W @ companion_model.B.ravel(), atol=1e-12)

    def test_repeated_eigenvalue_degenerate(self):
        m = StateSpaceModel([[0.5, 1.0], [0.0, 0.5]], [[0.0], [1.0]])
        with pytest.raises(SpectrumError) as err:
            diagonalize(m)
        assert err.value.classification is SpectrumClass.DEGENERATE

    def test_complex_pair_rejected(self):
        m = StateSpaceModel([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]])
        with pytest.raises(SpectrumError) as err:
            diagonalize(m)
        assert err.value.classification is SpectrumClass.COMPLEX

    def test_multi_input_refused(self):
        m = StateSpaceModel(np.diag([0.3, 0.6]), np.eye(2))
        with pytest.raises(ValueError, match="single input"):
            diagonalize(m)

    def test_reconstruction_accuracy(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            model = random_single_input(rng, random_spectrum(rng, n))
            eig = diagonalize(model)
            A_rec = np.linalg.inv(eig.left_vectors) @ np.diag(eig.eigenvalues) \
                @ eig.left_vectors
            scale = np.max(np.abs(model.A))
            assert np.max(np.abs(A_rec - model.A)) < 1e-8 * scale

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(12)
        model = random_single_input(rng, random_spectrum(rng, 4))
        eig = diagonalize(model)
        assert np.allclose(np.linalg.norm(eig.left_vectors, axis=1), 1.0)


class TestEigenStructure:
    def test_prefactor_invariant_under_row_rescaling(self):
        rng = np.random.default_rng(13)
        model = random_single_input(rng, random_spectrum(rng, 3))
        eig = diagonalize(model)
        base = eig.volume_prefactor
        for _ in range(5):
            scale = rng.uniform(0.1, 10.0, 3) * rng.choice([-1.0, 1.0], 3)
            W = eig.left_vectors * scale[:, None]
            scaled = EigenStructure(eig.eigenvalues, W, scale * eig.modal_gains)
            assert scaled.volume_prefactor == pytest.approx(base, rel=1e-12)

    def test_to_model_round_trip(self):
        rng = np.random.default_rng(14)
        model = random_single_input(rng, random_spectrum(rng, 3))
        eig = diagonalize(model)
        back = eig.to_model()
        assert np.allclose(back.A, model.A, atol=1e-10)
        assert np.allclose(back.B, model.B, atol=1e-10)


class TestClassifySpectrum:
    def test_all_positive(self):
        assert classify_spectrum([0.3, 0.5, 0.9]) is SpectrumClass.ALL_POSITIVE_DISTINCT

    def test_reciprocal_pair_is_near_singular(self):
        assert classify_spectrum([0.5, 2.0]) is SpectrumClass.NEAR_SINGULAR_FACTOR

    def test_mixed_sign(self):
        assert classify_spectrum([-0.5, 0.5]) is SpectrumClass.MIXED_SIGN

    def test_all_negative(self):
        assert classify_spectrum([-0.7, -0.2]) is SpectrumClass.ALL_NEGATIVE_DISTINCT

    def test_unit_eigenvalue_discrete(self):
        assert classify_spectrum([0.5, 1.0]) is SpectrumClass.NEAR_SINGULAR_FACTOR

    def test_degenerate_beats_near_singular(self):
        assert classify_spectrum([1.0, 1.0]) is SpectrumClass.DEGENERATE

    def test_complex_detected(self):
        assert classify_spectrum(np.array([0.5 + 0.2j, 0.5 - 0.2j])) \
            is SpectrumClass.COMPLEX

    def test_continuous_mode_pair_sum(self):
        assert classify_spectrum([-0.5, 0.5], "continuous") \
            is SpectrumClass.NEAR_SINGULAR_FACTOR
        assert classify_spectrum([-2.0, -1.0], "continuous") \
            is SpectrumClass.ALL_NEGATIVE_DISTINCT

    def test_continuous_mode_zero_eigenvalue(self):
        assert classify_spectrum([0.0, 1.0], "continuous") \
            is SpectrumClass.NEAR_SINGULAR_FACTOR


class TestVolumeUnderTransform:
    def test_matches_generator_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(8):
            A = random_invertible(rng, 3)
            B = rng.uniform(-1, 1, (3, 1))
            W = random_invertible(rng, 3)
            P = reachability_generators(StateSpaceModel(A, B), 5)
            lhs = symmetric_volume(W @ P)
            rhs = abs(np.linalg.det(W)) * symmetric_volume(P)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestLoadModel:
    def test_matrix_form(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"A": [[0.5, 0.0], [0.0, 0.8]], "B": [[1.0], [1.0]]}')
        m = load_model(path)
        assert isinstance(m, StateSpaceModel)
        assert np.allclose(m.A, np.diag([0.5, 0.8]))

    def test_spectral_form(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"lambda": [0.8, 0.5], "beta": [1.0, 2.0]}')
        eig = load_model(path)
        assert isinstance(eig, EigenStructure)
        assert np.allclose(eig.eigenvalues, [0.5, 0.8])
        assert np.allclose(eig.left_vectors, np.eye(2))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            load_model({"M": [[1.0]]})
