"""Model handling: generators, diagonalization, classification, transforms."""

import math
import traceback

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachvol import model as model_module
from reachvol.model import (
    EPS_SING,
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

    def test_arrays_are_read_only_copies(self):
        A, B = np.diag([0.3, 0.6]), np.ones(2)
        m = StateSpaceModel(A, B)
        for arr in (m.A, m.B):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # the caller's arrays stay writable, and writing them leaves the model
        A[0, 0], B[0] = 0.9, 5.0
        assert m.A[0, 0] == 0.3 and m.B[0, 0] == 1.0

    def test_eigen_is_decomposed_once(self, monkeypatch):
        m = random_single_input(np.random.default_rng(11), np.array([0.2, 0.5, 0.7]))
        calls = []
        monkeypatch.setattr(model_module, "diagonalize",
                            lambda sys_: calls.append(sys_) or diagonalize(sys_))
        assert m.eigen is m.eigen
        assert len(calls) == 1
        np.testing.assert_array_equal(m.eigen.eigenvalues, diagonalize(m).eigenvalues)

    def test_refused_decomposition_is_cached(self, monkeypatch):
        # complex, repeated, two-input: decomposed once; each access raises a
        # new exception of the same class and message, so no traceback grows
        calls = []
        monkeypatch.setattr(model_module, "diagonalize",
                            lambda sys_: calls.append(sys_) or diagonalize(sys_))
        for A, B, error in (([[0.0, -1.0], [1.0, 0.0]], [[1.0], [0.0]], SpectrumError),
                            ([[0.5, 1.0], [0.0, 0.5]], [[1.0], [1.0]], SpectrumError),
                            ([[0.5, 0.0], [0.0, 0.7]], [[1.0, 0.0], [0.0, 1.0]], ValueError)):
            m = StateSpaceModel(A, B)
            calls.clear()
            raised = []
            for _ in range(3):
                with pytest.raises(error) as info:
                    m.eigen
                raised.append(info.value)
            assert len(calls) == 1
            with pytest.raises(error) as direct:
                diagonalize(m)
            for exc in raised:
                assert type(exc) is type(direct.value)
                assert str(exc) == str(direct.value)
                assert vars(exc) == vars(direct.value)
            assert len({id(exc) for exc in raised}) == 3
            depths = {len(traceback.extract_tb(exc.__traceback__)) for exc in raised}
            assert len(depths) == 1


@st.composite
def _power_cases(draw):
    """(model, N, cond): A = V M V^-1 with M a block of rotations or a real
    diagonal of spectral radius rho in [0.3, 1.05], and V of condition
    number cond in [1, 1e3]; N is 1, 2, 3, a power of two, one past it, or
    any horizon up to 600."""
    n, r = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    k = draw(st.integers(1, 9))
    N = draw(st.one_of(st.sampled_from([1, 2, 3, 2 ** k, 2 ** k + 1]), st.integers(1, 600)))
    rho = draw(st.floats(0.3, 1.05))
    cond = 10.0 ** draw(st.floats(0.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.sampled_from(["rotation", "real"])) == "rotation":
        M = np.zeros((n, n))
        for i in range(0, n - 1, 2):
            th, rad = rng.uniform(0.05, 3.0), rho if i == 0 else rng.uniform(0.3, rho)
            M[i:i + 2, i:i + 2] = rad * np.array([[math.cos(th), -math.sin(th)],
                                                   [math.sin(th), math.cos(th)]])
        if n % 2:
            M[-1, -1] = rng.uniform(-rho, rho)
    else:
        lam = rng.uniform(0.3, rho, n) * rng.choice([-1.0, 1.0], n)
        lam[0] = rho
        M = np.diag(lam)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V = U @ np.diag(np.geomspace(1.0, cond, n)) @ W.T
    model = StateSpaceModel(V @ M @ np.linalg.inv(V), rng.standard_normal((n, r)))
    return model, N, cond


def _mp_generators(model, N):
    """[B, AB, ..., A^(N-1)B] of the stored (rounded) A and B, one exact
    product after another at 40 digits, as an object array of mpf."""
    with mpmath.workdps(40):
        A = np.vectorize(mpmath.mpf, otypes=[object])(model.A)
        blocks = [np.vectorize(mpmath.mpf, otypes=[object])(model.B)]
        for _ in range(N - 1):
            blocks.append(A @ blocks[-1])
        return np.hstack(blocks)


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

    @given(_power_cases())
    @settings(max_examples=60, deadline=None)
    def test_against_repeated_product_at_40_digits(self, case):
        # forward error of the doubling, normwise over the whole matrix.  A
        # non-normal A loses accuracy in each squaring, so the bound grows
        # with cond(V).  In 7,900 draws of these cases, 3,000 of them steered
        # towards large errors, it stayed below 1.96 * N * u * cond^2 * |G|
        # (the repeated product's, in 400 of them, below 0.14)
        model, N, cond = case
        G = reachability_generators(model, N)
        exact = _mp_generators(model, N)
        with mpmath.workdps(40):
            err = mpmath.sqrt(sum(x * x for x in (exact - G.astype(object)).ravel()))
            norm = mpmath.sqrt(sum(x * x for x in exact.ravel()))
        u = np.finfo(float).eps / 2
        assert float(err) <= 16 * model.n * N * u * cond ** 2 * float(norm)

    def test_first_block_is_B_bit_for_bit(self):
        rng = np.random.default_rng(3)
        m = StateSpaceModel(rng.standard_normal((4, 4)), rng.standard_normal((4, 2)))
        for N in (1, 2, 7, 64):
            assert np.array_equal(reachability_generators(m, N)[:, :2], m.B)

    def test_does_not_alias_B(self):
        m = StateSpaceModel(np.diag([0.5, 0.8]), [[1.0], [2.0]])
        for N in (1, 5):
            P = reachability_generators(m, N)
            assert not np.shares_memory(P, m.B)
            P[:] = 0.0
            assert np.array_equal(m.B, [[1.0], [2.0]])

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 9, 31, 33])
    def test_shape(self, N):
        m = StateSpaceModel(np.eye(3), np.ones((3, 2)))
        assert reachability_generators(m, N).shape == (3, 2 * N)

    @pytest.mark.parametrize("N", [0, -3])
    def test_horizon_below_one_rejected(self, N):
        m = StateSpaceModel(np.eye(2), [[1.0], [0.0]])
        with pytest.raises(ValueError, match="N must be >= 1"):
            reachability_generators(m, N)

    def test_horizon_taken_as_int(self):
        m = StateSpaceModel(np.diag([0.5, 0.8]), [[1.0], [1.0]])
        P = reachability_generators(m, 5)
        assert np.array_equal(reachability_generators(m, 5.0), P)
        assert np.array_equal(reachability_generators(m, np.int64(5)), P)

    def test_exact_on_signed_permutation(self):
        # every product of a signed permutation is exact, so each column
        # A^j b must come out bit for bit
        A = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = np.array([1.0, 2.0, 3.0])
        P = reachability_generators(StateSpaceModel(A, b), 37)
        x = b
        for j in range(37):
            assert np.array_equal(P[:, j], x)
            x = A @ x


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

    def test_arrays_are_read_only_copies(self):
        lam, W, g = np.array([0.2, 0.7]), np.eye(2), np.array([1.0, 2.0])
        eig = EigenStructure(lam, W, g)
        for arr in (eig.eigenvalues, eig.left_vectors, eig.modal_gains):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        lam[0], W[0, 0], g[0] = 0.1, 3.0, 4.0
        assert (eig.eigenvalues[0], eig.left_vectors[0, 0], eig.modal_gains[0]) == (0.2, 1.0, 1.0)
        assert eig.volume_prefactor == 8.0

    def test_to_model_round_trip(self):
        rng = np.random.default_rng(14)
        model = random_single_input(rng, random_spectrum(rng, 3))
        eig = diagonalize(model)
        back = eig.to_model()
        assert np.allclose(back.A, model.A, atol=1e-10)
        assert np.allclose(back.B, model.B, atol=1e-10)


@st.composite
def _guarded_spectra(draw):
    """Spectra with points within a few EPS_SING of the factor singularities:
    of 1 and 0, of a reciprocal of another point, of an opposite one."""
    lam = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5, unique=True))
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.sampled_from(lam))
        near = draw(st.sampled_from([1.0, 0.0, 1.0 / x if x else 2.0, -x]))
        lam.append(near + draw(st.sampled_from([0.0, 5e-11, -5e-11, 1e-10, -1e-10, 2e-10])))
    return lam


def _hand_written_class(lambdas, mode):
    """classify_spectrum's rule with its denominators written out by hand."""
    lam, _, defect = model_module._real_ascending(np.asarray(lambdas))
    if defect is not None:
        return defect
    iu = np.triu_indices(lam.size, 1)
    if mode == "discrete":
        if np.any(np.abs(1.0 - lam) < EPS_SING):
            return SpectrumClass.NEAR_SINGULAR_FACTOR
        prods = np.outer(lam, lam)[iu]
        if prods.size and np.any(np.abs(1.0 - prods) < EPS_SING):
            return SpectrumClass.NEAR_SINGULAR_FACTOR
    else:
        if np.any(np.abs(lam) < EPS_SING):
            return SpectrumClass.NEAR_SINGULAR_FACTOR
        sums = np.add.outer(lam, lam)[iu]
        if sums.size and np.any(np.abs(sums) < EPS_SING):
            return SpectrumClass.NEAR_SINGULAR_FACTOR
    if lam[0] > 0.0:
        return SpectrumClass.ALL_POSITIVE_DISTINCT
    if lam[-1] < 0.0:
        return SpectrumClass.ALL_NEGATIVE_DISTINCT
    return SpectrumClass.MIXED_SIGN


class TestClassifySpectrum:
    @given(_guarded_spectra())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_agrees_with_hand_written_denominators(self, lam):
        for mode in ("discrete", "continuous"):
            assert classify_spectrum(lam, mode) is _hand_written_class(lam, mode)

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
