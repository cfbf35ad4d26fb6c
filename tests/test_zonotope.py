"""Exact determinant-sum volume and determinant counts."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachvol import analytic, extensions, zonotope
from reachvol.analytic import full_volume
from reachvol.extensions import ContinuousModel, ct_discretized_oracle
from reachvol.model import StateSpaceModel, VolumeDomainError, reachability_generators
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


def _krylov(A, B, N):
    """[B, AB, ..., A^(N-1) B] by N - 1 products, one block at a time."""
    blocks = [np.asarray(B, float)]
    for _ in range(N - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def _lightly_damped_system(n, r, seed):
    """(A, B) of slowly decaying rotations with r inputs, as the oracle
    workload sends: late generators turn slowly and shrink slowly."""
    rng = np.random.default_rng(seed)
    M = np.zeros((n, n))
    for k in range(n // 2):
        th, rho = rng.uniform(0.05, 0.6), rng.uniform(0.9, 0.995)
        M[2 * k:2 * k + 2, 2 * k:2 * k + 2] = rho * np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    if n % 2:
        M[-1, -1] = rng.uniform(-0.9, 0.9)
    V = rng.standard_normal((n, n))
    return V @ M @ np.linalg.inv(V), rng.standard_normal((n, r))


def _lightly_damped_generators(n, m, seed):
    """[b, Ab, ..., A^(m-1) b] of :func:`_lightly_damped_system`."""
    return _krylov(*_lightly_damped_system(n, 1, seed), m)


def _ct_generators(lam, T, dt):
    """exp(A_c k dt) b dt, k < T / dt, for diagonal A_c = diag(lam) and b = 1,
    with |det exp(A_c dt)|: the continuous-time oracle's Krylov matrix."""
    lam = np.asarray(lam, float)
    K = round(T / dt)
    return np.exp(np.outer(lam, np.arange(K) * dt)) * dt, math.exp(dt * lam.sum())


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
        for volume in (unit_cube_volume, symmetric_volume):
            for Z in ([[1.0, np.nan]], [[1.0, 2.0], [np.inf, 0.0]]):
                with pytest.raises(ValueError, match="non-finite"):
                    volume(Z)

    @pytest.mark.parametrize("n,m", [(1, 7), (2, 9), (3, 8), (4, 7), (5, 6)])
    def test_matches_reference_enumeration(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        Z = rng.standard_normal((n, m))
        assert unit_cube_volume(Z) == pytest.approx(_brute_volume(Z), rel=1e-12)

    def test_chunked_path_matches_unchunked(self, monkeypatch):
        # _CHUNK below n * m puts each prefix in a batch of its own; at
        # n = 2 the one (empty) prefix is the whole sum.  On the anchored
        # path it also builds each prefix's mask one column of k at a time,
        # where the default builds (3, 1, 160)'s in one 159-by-159 block
        rng = np.random.default_rng(7)
        cases = [(rng.standard_normal(shape), None) for shape in ((4, 12), (3, 12), (2, 40))]
        for n, r, N in ((4, 1, 12), (3, 2, 9), (5, 1, 9), (2, 2, 20)):
            A, B = _lightly_damped_system(n, r, seed=n + r)
            cases.append((_krylov(A, B, N), (r, abs(np.linalg.det(A)))))
        A, B = _lightly_damped_system(3, 1, seed=3)
        cases.append((_krylov(A, B, 160), (1, abs(np.linalg.det(A)))))
        unchunked = [unit_cube_volume(Z, krylov=kr) for Z, kr in cases]
        monkeypatch.setattr(zonotope, "_CHUNK", 17)
        for (Z, kr), ref in zip(cases, unchunked):
            assert unit_cube_volume(Z, krylov=kr) == pytest.approx(ref, rel=1e-13)

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


@st.composite
def _krylov_systems(draw):
    """(A, B, N) with a normal A, so that the N - 1 products of the Krylov
    matrix are accurate: rotation blocks rho R(theta) of slow rotations
    (rho up to 1 - 1e-6) or of growing ones (|det A| > 1), a real eigenvalue
    for odd n that may be 0 (singular A) or negative (det A < 0), and B
    with a zero column or none.  N runs from 1, so r N < n and r N = n
    occur."""
    n, r = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    N = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["slow", "growing", "singular", "negative"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = np.zeros((n, n))
    for k in range(n // 2):
        th = rng.uniform(0.05, 0.6)
        rho = 1.0 + rng.uniform(0.0, 0.2) if kind == "growing" \
            else 1.0 - 10.0 ** rng.uniform(-6.0, -1.0)
        M[2 * k:2 * k + 2, 2 * k:2 * k + 2] = rho * np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    if n % 2:
        M[-1, -1] = {"singular": 0.0, "negative": -rng.uniform(0.3, 1.1)}.get(
            kind, rng.uniform(-1.1, 1.1))
    # an orthogonal change of basis keeps A normal; a singular A stays
    # exactly singular without it
    if kind != "singular" and draw(st.booleans()):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        M = Q @ M @ Q.T
    B = rng.standard_normal((n, r))
    if draw(st.booleans()):
        B[:, rng.integers(r)] = 0.0
    return M, B, N


# Graded diagonal systems (lambda, b, N) whose direct sums once went wrong,
# and the unit-cube volume of [b, Ab, ..., A^(N-1) b] from a 60-digit
# anchored sum over the exact powers of the float lambda.  Unscaled pivoting
# eliminated with the fast-growing mode's row and swamped the small modes,
# and an arctan2 angle order rounded long, nearly axis-parallel vectors.
GRADED_ROWS = [
    ((1.1685, 0.7255, 0.6722), (0.605, 8e-6, 7.8e-4), 412, 1.889761010547338107372221e20),
    ((1.2693, -1.0798, 0.933), (0.605, 8e-6, 7.8e-4), 122, 9.929596113815191740265478e10),
    ((1.05, -0.8, 1.3), (1.0, 1e-3, 1.0), 110, 1.656905795990464906058482e14),
    ((1.01, -0.909, 1.111), (1.0, 1e-3, 1.0), 400, 8.246746715836454782404464e20),
]


class TestGradedGenerators:
    @pytest.mark.parametrize("lam,b,N,ref", GRADED_ROWS)
    def test_generic_and_anchored_sums_match_exact_powers(self, lam, b, N, ref):
        lam, b = np.array(lam), np.array(b)
        Z = b[:, None] * lam[:, None] ** np.arange(N)
        generic = unit_cube_volume(Z)
        anchored = unit_cube_volume(Z, krylov=(1, abs(np.prod(lam))))
        assert abs(generic - ref) <= 1e-13 * ref
        assert abs(anchored - ref) <= 1e-13 * ref
        assert abs(generic - anchored) <= 1e-13 * ref


class TestKrylovAnchoredSum:
    """unit_cube_volume with krylov=(r, |det A|) against the generic sum."""

    @given(_krylov_systems())
    @settings(max_examples=150, deadline=None)
    def test_matches_generic_sum(self, system):
        A, B, N = system
        n, r = B.shape
        Z = _krylov(A, B, N)
        got = unit_cube_volume(Z, krylov=(r, abs(np.linalg.det(A))))
        ref = unit_cube_volume(Z)
        if r * N < n or np.linalg.matrix_rank(Z) < n:
            scale = np.linalg.norm(Z) ** n
            assert abs(got) <= 1e-12 * scale and abs(ref) <= 1e-12 * scale
        else:
            assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n,r,N", [(3, 1, 150), (3, 2, 80), (4, 1, 30)])
    def test_workload_sizes_against_vectorized_reference(self, n, r, N):
        A, B = _lightly_damped_system(n, r, seed=10 * n + r)
        Z = _krylov(A, B, N)
        ref = _vectorized_volume(Z)
        got = unit_cube_volume(Z, krylov=(r, abs(np.linalg.det(A))))
        assert abs(got - ref) <= 1e-12 * ref

    def test_continuous_time_cover_against_vectorized_reference(self):
        # the oracle workload's costliest continuous request: n = 3, K = 400
        Z, abs_det = _ct_generators([-2.6, -1.3, -0.4], T=2.0, dt=0.005)
        assert Z.shape == (3, 400)
        ref = _vectorized_volume(Z)
        assert abs(unit_cube_volume(Z, krylov=(1, abs_det)) - ref) <= 1e-12 * ref

    def test_first_block_only(self):
        # N = 1: every subset lies in the first block, and every weight is 1
        Z = np.random.default_rng(9).standard_normal((3, 5))
        assert unit_cube_volume(Z, krylov=(5, 2.5)) == pytest.approx(
            _brute_volume(Z), rel=1e-13)

    def test_overflowing_weights_take_the_generic_sum(self):
        # |det A|^(N - 1) overflows: the weights are not finite
        Z = np.random.default_rng(10).standard_normal((3, 12))
        assert unit_cube_volume(Z, krylov=(1, 1e300)) == unit_cube_volume(Z)

    @pytest.mark.parametrize("krylov", [(5, 1.0), (0, 1.0), (1, -0.5)])
    def test_rejects_inconsistent_structure(self, krylov):
        with pytest.raises(ValueError, match="krylov"):
            unit_cube_volume(np.eye(3, 12), krylov=krylov)

    def test_wide_range_direct_volume_against_stacked_determinants(self):
        # generators from 1 to 1.3^89 = 1.4e10 along nearly one direction:
        # against a 60-digit sum over the same generators the generic path
        # is off by 2.9e-11 here, the anchored one by 6e-16
        model = StateSpaceModel(np.diag([1.05, -0.8, 1.3]), [[1.0], [1e-3], [1.0]])
        G = reachability_generators(model, 90)
        idx = np.array(list(combinations(range(90), 3)), dtype=np.intp)
        ref = 8.0 * math.fsum(np.abs(np.linalg.det(G.T[idx])))
        assert abs(full_volume(model, 90, "direct").volume - ref) <= 1e-14 * ref

    def test_negative_total_raises_on_both_paths(self, monkeypatch):
        # pair sums that round negative stand in for a sum that cancels
        Z = _lightly_damped_generators(3, 12, seed=1)
        monkeypatch.setattr(zonotope, "_pair_sums", lambda Y: -np.ones(len(Y)))
        with pytest.raises(VolumeDomainError, match="cancelled to a negative total"):
            unit_cube_volume(Z)
        monkeypatch.setattr(zonotope, "_weighted_pair_sums", lambda Y, w: -np.ones(len(Y)))
        with pytest.raises(VolumeDomainError, match="cancelled to a negative total"):
            unit_cube_volume(Z, krylov=(1, 0.9))

    def test_direct_routes_declare_the_structure(self, monkeypatch):
        # both callers look symmetric_volume up by its module-global name,
        # where an outside wrapper sees every direct volume
        calls = []

        def recorded(Z, **kwargs):
            calls.append((np.shape(Z), kwargs))
            return symmetric_volume(Z, **kwargs)

        monkeypatch.setattr(analytic, "symmetric_volume", recorded)
        monkeypatch.setattr(extensions, "symmetric_volume", recorded)
        A, B = _lightly_damped_system(3, 2, seed=4)
        full_volume(StateSpaceModel(A, B), 6, "direct")
        ct = ContinuousModel.from_spectrum([-2.0, -0.5], [1.0, 1.0], 1.0)
        ct_discretized_oracle(ct, 0.25)
        assert [shape for shape, _ in calls] == [(3, 12), (2, 4)]
        (r, abs_det), (r_ct, abs_det_ct) = (kw["krylov"] for _, kw in calls)
        assert r == 2 and abs_det == pytest.approx(abs(np.linalg.det(A)), rel=1e-14)
        assert r_ct == 1 and abs_det_ct == pytest.approx(math.exp(-2.5 * 0.25), rel=1e-14)
