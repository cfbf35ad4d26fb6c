"""Volume sums: expansion, recursion, identities, and route dispatch."""

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from mpmath import mp, mpf
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reachvol import analytic
from reachvol.analytic import (
    COND_DD,
    DD_DIGITS,
    DEFAULT_DPS,
    GUARD_DIGITS,
    MAX_DPS,
    SubsetTerm,
    _dd_factor_table,
    _EXPANSIONS,
    _expand,
    _factor_product,
    _subsets,
    analytic_volume_sum,
    analytic_volume_sum_grouped,
    analytic_volume_terms,
    deletion_identity_residual,
    distribution_factor,
    full_volume,
    infinite_volume_sum,
    power_factor,
    quasi_vandermonde,
    recursive_volume_sum,
    sign_coefficient,
    substitution_identity_residuals,
)
from reachvol.extensions import ContinuousModel, ct_volume_analytic, narrow_volume_analytic
from reachvol.model import (
    _FACTOR_FORMS,
    EigenStructure,
    SingularFactorError,
    SpectrumClass,
    SpectrumError,
    StateSpaceModel,
    UnboundedRegionError,
    diagonalize,
)
from reachvol.sampling import random_single_input, random_spectrum
from reachvol.zonotope import unit_cube_volume


def power_matrix_volume(lam, N):
    """Independent oracle: exact determinant sum over the power matrix."""
    lam = np.asarray(lam, float)
    return unit_cube_volume(lam[:, None] ** np.arange(int(N))[None, :])


def _scalar_recursion(lam, N):
    """Reference deletion recursion: a scalar loop over masks and members.

    Each mask starts from its previous value and adds, for each member i
    ascending, +-lambda_i^(k-1) times the value of the mask without i;
    seeds are Vandermonde products multiplied in lexicographic pair order.
    """
    lam = [float(x) for x in lam]
    n = len(lam)
    full = (1 << n) - 1
    masks = list(range(1, full + 1))
    members = {m: [i for i in range(n) if m >> i & 1] for m in masks}
    seed = {}
    for m in masks:
        p = 1.0
        for a, b in combinations(members[m], 2):
            p *= lam[b] - lam[a]
        seed[m] = p
    prev = {0: 1.0}
    pows = [1.0] * n  # lambda_i ** (k-1) at step k
    for k in range(1, N + 1):
        cur = {0: 1.0}
        for m in masks:
            mem = members[m]
            sz = len(mem)
            if sz > k:
                continue
            if sz == k:
                cur[m] = seed[m]
            else:
                acc = prev[m]
                for pos, i in enumerate(mem, start=1):
                    term = pows[i] * prev[m & ~(1 << i)]
                    acc += term if (sz + pos) % 2 == 0 else -term
                cur[m] = acc
        for i in range(n):
            pows[i] *= lam[i]
        prev = cur
    return prev[full]


@st.composite
def recursion_cases(draw):
    """(spectrum, N) for the recursion: an integrator, a reciprocal pair, or
    stable modes 0.025 apart beside an integrator, n = 1..10.  N runs from n
    to 600, its upper end shrinking as 2^-n so the scalar reference stays
    cheap (N <= 32 at n = 10); N = n and n + 1 reset the seed layers."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["integrator", "reciprocal", "close"]))
    if kind == "reciprocal":
        n = max(n, 2)
    start = draw(st.floats(0.05, 0.2))
    gap = 0.025 if kind == "close" else draw(st.floats(0.06, 0.07))
    stable = start + gap * np.arange(n - 2 if kind == "reciprocal" else n - 1)
    if kind == "reciprocal":
        a = draw(st.floats(0.8, 0.92))
        lam = np.r_[stable, a, 1.0 / a]
    else:
        lam = np.r_[stable, 1.0]
    top = min(600, max(n + 1, (1 << 15) >> n))
    N = draw(st.one_of(st.just(n), st.just(n + 1), st.integers(n, top)))
    return lam, N


def phi_ref(lam):
    """Hand-rolled positive-path distribution factor for cross-checks."""
    lam = list(lam)
    p = 1.0
    for a in range(len(lam)):
        for b in range(a + 1, len(lam)):
            p *= (lam[b] - lam[a]) / (1.0 - lam[a] * lam[b])
    for x in lam:
        p /= 1.0 - x
    return p


class TestDistributionFactor:
    def test_blank_sequence(self):
        for mode in ("discrete_positive", "discrete_negative_abs", "continuous"):
            assert distribution_factor([], mode) == 1.0

    def test_single_positive(self):
        assert distribution_factor([0.5]) == pytest.approx(2.0)

    def test_pair_by_hand(self):
        # (0.3/0.6) * (1/0.5) * (1/0.2)
        assert distribution_factor([0.5, 0.8]) == pytest.approx(5.0)

    def test_negative_mode_by_hand(self):
        # |0.5/0.76| / (0.2 * 0.7), moduli ascending order (-0.3, -0.8)
        val = distribution_factor([-0.3, -0.8], "discrete_negative_abs")
        assert val == pytest.approx(abs(-0.5 / 0.76) / (0.7 * 0.2))

    def test_continuous_mode_by_hand(self):
        # |(-1+2)/(-3)| / ((-2)*(-1))
        val = distribution_factor([-2.0, -1.0], "continuous")
        assert val == pytest.approx((1.0 / 3.0) / 2.0)

    def test_singular_pair_named(self):
        with pytest.raises(SingularFactorError, match="lambda_1"):
            distribution_factor([0.5, 2.0])

    def test_singular_per_eigenvalue_named(self):
        with pytest.raises(SingularFactorError, match="lambda_2"):
            distribution_factor([0.5, 1.0])


class TestFactorProduct:
    """_factor_product, the distribution factor that can leave out one denominator."""

    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_left_out_denominator_times_the_factor(self, lam):
        n = len(lam)
        for form, (pair_den, self_den, absolute) in _FACTOR_FORMS.items():
            # the pairwise product enters by magnitude in the absolute forms,
            # and with it a left-out pairwise denominator
            dens = {("skip_pair", (i, k)): abs(pair_den(lam[i], lam[k])) if absolute
                    else pair_den(lam[i], lam[k]) for i, k in combinations(range(n), 2)}
            dens.update({("skip_self", i): self_den(x) for i, x in enumerate(lam)})
            if min(abs(d) for d in dens.values()) < 1e-3:
                continue
            full = distribution_factor(lam, form)
            assert repr(_factor_product(lam, form)) == repr(full)
            for (name, at), den in dens.items():
                got = _factor_product(lam, form, **{name: at})
                assert abs(got - den * full) <= 1e-13 * abs(den * full), (form, name, at)

    def test_left_out_denominator_may_vanish(self):
        # 1 - 0.5 * 2 = 0 and 1 - 1 = 0: each product is finite without its zero
        assert _factor_product([0.5, 2.0], "discrete_positive", skip_pair=(0, 1)) == \
            pytest.approx(1.5 / (0.5 * -1.0))
        assert _factor_product([0.5, 1.0], "discrete_positive", skip_self=1) == \
            pytest.approx(0.5 / 0.5 / 0.5)
        with pytest.raises(SingularFactorError, match="lambda_2"):
            _factor_product([0.5, 1.0], "discrete_positive", skip_pair=(0, 1))


class TestPowerFactor:
    def test_pair_squared(self):
        assert power_factor([0.5, 0.8], 2) == pytest.approx(0.16)

    def test_blank_sequence(self):
        assert power_factor([], 7) == 1.0

    def test_continuous_exponential(self):
        assert power_factor([-1.0, -2.0], 3, "continuous") == pytest.approx(
            math.exp(-9.0))

    def test_abs_mode(self):
        assert power_factor([-0.5, -0.8], 3, "discrete_abs") == pytest.approx(
            (0.5 * 0.8) ** 3)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError, match="log magnitude"):
            power_factor([4.0], 10 ** 6)


class TestSignCoefficient:
    def test_singleton(self):
        assert sign_coefficient((1,), 2) == 1

    def test_full_pair(self):
        assert sign_coefficient((1, 2), 2) == -1

    def test_blank(self):
        assert sign_coefficient((), 5) == 1

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_parity_definition(self, n, data):
        size = data.draw(st.integers(0, n))
        subset = tuple(sorted(data.draw(
            st.sets(st.integers(1, n), min_size=size, max_size=size))))
        expected = (-1) ** ((n + 1) * len(subset) - sum(subset))
        assert sign_coefficient(subset, n) == expected

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            sign_coefficient((2, 1), 3)


def det_leibniz(M):
    """Independent determinant: Leibniz permutation expansion."""
    n = M.shape[0]
    total = 0.0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        total += sign * math.prod(M[i, perm[i]] for i in range(n))
    return total


class TestQuasiVandermonde:
    def test_plain_vandermonde_pair(self):
        assert quasi_vandermonde([0.3, 0.7], (0, 1)) == pytest.approx(0.4)

    def test_scalar_power(self):
        assert quasi_vandermonde([0.5], (3,)) == pytest.approx(0.125)

    def test_three_by_three_positive_and_matches_leibniz(self):
        lam = np.array([0.2, 0.5, 0.9])
        exps = (0, 2, 5)
        val = quasi_vandermonde(lam, exps)
        M = lam[:, None] ** np.array(exps)[None, :]
        assert val == pytest.approx(det_leibniz(M), rel=1e-12)
        assert val > 0.0

    def test_positivity_on_random_draws(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            lam = random_spectrum(rng, n)
            exps = np.sort(rng.choice(np.arange(0, 4 * n + 2), n, replace=False))
            assert quasi_vandermonde(lam, exps) > 0.0

    def test_rejects_unsorted_exponents(self):
        with pytest.raises(ValueError):
            quasi_vandermonde([0.2, 0.4], (3, 1))


class TestRecursiveVolumeSum:
    def test_scalar_geometric(self):
        assert recursive_volume_sum([0.5], 3) == pytest.approx(1.75)

    def test_seed_is_vandermonde(self):
        assert recursive_volume_sum([0.3, 0.7], 2) == pytest.approx(0.4)

    def test_matches_power_matrix_oracle(self):
        assert recursive_volume_sum([0.5, 0.8], 5) == pytest.approx(
            power_matrix_volume([0.5, 0.8], 5), rel=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            lam = random_spectrum(rng, n)
            N = int(rng.integers(n, 13))
            assert recursive_volume_sum(lam, N) == pytest.approx(
                power_matrix_volume(lam, N), rel=1e-10)

    def test_division_free_at_unit_eigenvalue(self):
        # 1 + 1 + ... + 1, N terms
        assert recursive_volume_sum([1.0], 6) == pytest.approx(6.0)
        # reciprocal pair: oracle still applies
        lam = [0.5, 2.0]
        assert recursive_volume_sum(lam, 7) == pytest.approx(
            power_matrix_volume(lam, 7), rel=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(SpectrumError):
            recursive_volume_sum([0.4, 0.4], 4)

    def test_requires_N_at_least_n(self):
        with pytest.raises(ValueError):
            recursive_volume_sum([0.2, 0.5], 1)

    @given(recursion_cases())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_scalar_loop(self, case):
        lam, N = case
        assert recursive_volume_sum(lam, N) == _scalar_recursion(lam, N)


class TestAnalyticVolumeSum:
    def test_pair_at_N_equals_n(self):
        assert analytic_volume_sum([0.3, 0.7], 2) == pytest.approx(0.4, rel=1e-12)

    def test_closed_pair_form(self):
        # hand-assembled two-eigenvalue closed form at several N
        for l1, l2, N in ((0.3, 0.7, 5), (0.1, 0.9, 3), (0.45, 0.55, 8)):
            expected = ((l2 - l1) * (1 - (l1 * l2) ** N)
                        / ((1 - l1) * (1 - l2) * (1 - l1 * l2))
                        + (l1 ** N - l2 ** N) / ((1 - l1) * (1 - l2)))
            assert analytic_volume_sum([l1, l2], N) == pytest.approx(
                expected, rel=1e-12)

    def test_three_eigenvalues_against_oracle(self):
        lam = [0.2, 0.5, 0.9]
        assert analytic_volume_sum(lam, 7) == pytest.approx(
            power_matrix_volume(lam, 7), rel=1e-10)

    def test_terms_match_pair_closed_form_termwise(self):
        l1, l2, N = 0.3, 0.7, 6
        terms = {t.subset: t for t in analytic_volume_terms([l1, l2], N)}
        phi12 = phi_ref([l1, l2])
        phi1, phi2 = phi_ref([l1]), phi_ref([l2])
        assert terms[()].value == pytest.approx(phi12, rel=1e-13)
        assert terms[(1,)].value == pytest.approx(l1 ** N * phi1 * phi2, rel=1e-13)
        assert terms[(2,)].value == pytest.approx(-l2 ** N * phi2 * phi1, rel=1e-13)
        assert terms[(1, 2)].value == pytest.approx(
            -(l1 * l2) ** N * phi12, rel=1e-13)

    def test_term_order_by_size_then_lex(self):
        terms = analytic_volume_terms([0.2, 0.4, 0.6], 4)
        assert [t.subset for t in terms] == [
            (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]

    def test_anchor_at_N_equals_n(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            lam = random_spectrum(rng, n)
            vander = math.prod(lam[b] - lam[a]
                               for a in range(n) for b in range(a + 1, n))
            assert analytic_volume_sum(lam, n) == pytest.approx(vander, rel=1e-12)

    def test_monotone_in_N(self):
        lam = [0.25, 0.65, 0.85]
        vals = [analytic_volume_sum(lam, N) for N in range(3, 16)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_hypothesis_violations_carry_classification(self):
        with pytest.raises(SpectrumError) as err:
            analytic_volume_sum([-0.5, 0.5], 4)
        assert err.value.classification is SpectrumClass.MIXED_SIGN
        with pytest.raises(SpectrumError) as err:
            analytic_volume_sum([0.5, 2.0], 4)
        assert err.value.classification is SpectrumClass.NEAR_SINGULAR_FACTOR

    def test_requires_sorted_input(self):
        with pytest.raises(ValueError):
            analytic_volume_sum([0.7, 0.3], 4)

    def test_overflowing_spectrum_stays_finite_in_working_precision(self):
        # growth beyond double range is fine inside the expansion
        val = analytic_volume_sum([1.5, 2.5], 600)
        assert math.isinf(val)  # the true sum really is above double range


class TestGroupedForms:
    def test_forms_agree_with_plain_sum(self):
        for lam, N in (([0.3, 0.7], 4), ([0.2, 0.5, 0.9], 5)):
            ref = analytic_volume_sum(lam, N)
            for form in ("complement", "factored"):
                got = analytic_volume_sum_grouped(lam, N, form)
                assert got == pytest.approx(ref, rel=1e-12)

    def test_pair_seed_value(self):
        assert analytic_volume_sum_grouped([0.4, 0.6], 2) == pytest.approx(
            0.2, rel=1e-12)

    def test_random_agreement(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            lam = random_spectrum(rng, n)
            N = int(rng.integers(n, 11))
            ref = analytic_volume_sum(lam, N)
            assert analytic_volume_sum_grouped(lam, N, "complement") == \
                pytest.approx(ref, rel=1e-12)
            assert analytic_volume_sum_grouped(lam, N, "factored") == \
                pytest.approx(ref, rel=1e-12)


class TestInfiniteVolumeSum:
    def test_scalar(self):
        assert infinite_volume_sum([0.5]) == pytest.approx(2.0)

    def test_pair(self):
        assert infinite_volume_sum([0.5, 0.8]) == pytest.approx(5.0)

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedRegionError):
            infinite_volume_sum([0.5, 1.1])

    def test_negative_spectrum_allowed(self):
        val = infinite_volume_sum([-0.8, -0.3])
        # pairwise (0.5/0.76), per-eigenvalue 1/(1-|l|)
        assert val == pytest.approx((0.5 / 0.76) / (0.2 * 0.7))

    def test_tail_bound_with_term_magnitude_constant(self):
        # |V_N - V_inf| <= (sum of non-empty subset |dist_in*dist_out|) * lmax^N,
        # since every non-empty power factor is <= lmax^N on a sub-unit spectrum
        lam = [0.5, 0.8]
        phi = infinite_volume_sum(lam)
        terms = analytic_volume_terms(lam, 1_000)  # powers ~ 0, factors exact
        C = sum(abs(t.dist_in * t.dist_out) for t in terms if t.subset)
        for N in (4, 10, 20, 40):
            err = abs(analytic_volume_sum(lam, N) - phi)
            assert err <= C * 0.8 ** N

    def test_convergence_toward_limit(self):
        lam = [0.5, 0.8]
        phi = infinite_volume_sum(lam)
        errs = [abs(analytic_volume_sum(lam, N) - phi) for N in (10, 20, 40)]
        assert errs[0] > errs[1] > errs[2]
        # normalized error ratio approaches dist_1*dist_2 = 10 from below
        assert errs[2] < 10 * 0.8 ** 40


class TestDeletionIdentity:
    def test_scalar_is_exact_zero(self):
        assert deletion_identity_residual([0.5]) == 0.0

    def test_pair(self):
        assert abs(deletion_identity_residual([0.3, 0.7])) < 1e-12

    def test_triple(self):
        assert abs(deletion_identity_residual([0.2, 0.5, 0.9])) < 1e-11

    def test_random_draws(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            lam = random_spectrum(rng, n)
            assert abs(deletion_identity_residual(lam)) < 1e-11


class TestSubstitutionIdentities:
    def test_member_pair_cases(self):
        r1, r2, r3 = substitution_identity_residuals([0.3, 0.7], 1, 2)
        assert r1 == 0.0  # duplicate member collapses the factor exactly
        assert abs(r2) < 1e-12
        assert abs(r3) < 1e-12

    def test_reciprocal_member_pair(self):
        r1, r2, r3 = substitution_identity_residuals([0.4, 2.5], 1, 2)
        assert abs(r3) < 1e-12

    def test_outside_member_unchanged(self):
        # lambda_j outside the member set: factor is unaffected, residual 0
        r1, _, _ = substitution_identity_residuals(
            [0.3, 0.7, 0.9], 1, 3, members=(1, 2))
        assert r1 == 0.0

    def test_member_swap_case(self):
        # lambda_i outside, lambda_j a member: signed member swap
        lam = [0.2, 0.5, 0.9]
        r1, _, _ = substitution_identity_residuals(lam, 1, 3, members=(2, 3))
        assert abs(r1) < 1e-12

    def test_random_draws(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            lam = random_spectrum(rng, n)
            i = int(rng.integers(1, n))
            j = int(rng.integers(i + 1, n + 1))
            r1, r2, r3 = substitution_identity_residuals(lam, i, j)
            assert max(abs(r1), abs(r2), abs(r3)) < 1e-11

    @given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_drawn_members(self, n, seed, data):
        lam = random_spectrum(np.random.default_rng(seed), n)
        i = data.draw(st.integers(1, n - 1))
        j = data.draw(st.integers(i + 1, n))
        members = tuple(sorted(data.draw(st.sets(st.integers(1, n)))))
        r = substitution_identity_residuals(lam, i, j, members=members)
        assert max(map(abs, r)) < 1e-11

    def test_singular_substitution_point_raises(self):
        # lambda_j := lambda_i = 0.5 meets the reciprocal member 2.0
        with pytest.raises(SingularFactorError):
            substitution_identity_residuals([0.5, 0.9, 2.0], 1, 2, members=(2, 3))

    def test_unit_lambda_inadmissible_in_case3(self):
        with pytest.raises(SingularFactorError):
            substitution_identity_residuals([1.0, 2.0], 1, 2)


class TestFullVolume:
    def test_diagonal_pair_small_horizon(self):
        m = StateSpaceModel(np.diag([0.5, 0.8]), [[1.0], [1.0]])
        rep = full_volume(m, 2)
        assert rep.volume == pytest.approx(1.2, rel=1e-12)
        assert rep.route == "analytic"

    def test_three_routes_agree(self):
        m = StateSpaceModel(np.diag([0.5, 0.8]), [[1.0], [1.0]])
        vols = [full_volume(m, 6, r).volume for r in ("direct", "recursive", "analytic")]
        assert vols[1] == pytest.approx(vols[0], rel=1e-10)
        assert vols[2] == pytest.approx(vols[0], rel=1e-10)

    def test_companion_model_analytic_vs_direct(self):
        m = StateSpaceModel([[0.0, 1.0], [-0.12, 0.7]], [[0.0], [1.0]])
        ana = full_volume(m, 5, "analytic").volume
        direct = full_volume(m, 5, "direct").volume
        assert ana == pytest.approx(direct, rel=1e-9)

    def test_direct_route_looks_up_generator_builder_when_called(self, monkeypatch):
        # a wrapper bound to the module name after import must see the call
        calls = []
        builder = analytic.reachability_generators

        def counted(model, N):
            calls.append(N)
            return builder(model, N)

        monkeypatch.setattr(analytic, "reachability_generators", counted)
        m = StateSpaceModel(np.diag([0.5, 0.8]), [[1.0], [1.0]])
        full_volume(m, 6, "direct")
        full_volume(EigenStructure.from_spectrum([-0.5, 0.5], [1.0, 1.0]), 5, "auto")
        assert calls == [6, 5]

    def test_auto_falls_back_to_recursion_on_reciprocal_pair(self):
        eig = EigenStructure.from_spectrum([0.5, 2.0], [1.0, 1.0])
        rep = full_volume(eig, 6, "auto")
        assert rep.route == "recursive"
        assert rep.volume == pytest.approx(
            full_volume(eig, 6, "direct").volume, rel=1e-9)
        assert any("NearSingular" in w for w in rep.warnings)

    def test_auto_uses_direct_for_mixed_sign(self):
        eig = EigenStructure.from_spectrum([-0.5, 0.5], [1.0, 1.0])
        rep = full_volume(eig, 5, "auto")
        assert rep.route == "direct"

    def test_analytic_route_raises_on_mixed_sign(self):
        eig = EigenStructure.from_spectrum([-0.5, 0.5], [1.0, 1.0])
        with pytest.raises(SpectrumError) as err:
            full_volume(eig, 5, "analytic")
        assert err.value.classification is SpectrumClass.MIXED_SIGN

    def test_negative_spectrum_auto_matches_direct(self):
        eig = EigenStructure.from_spectrum([-0.8, -0.3], [1.0, 1.0])
        rep = full_volume(eig, 5, "auto")
        assert rep.route == "analytic"
        assert rep.volume == pytest.approx(
            full_volume(eig, 5, "direct").volume, rel=1e-10)

    def test_multi_input_auto_uses_direct(self):
        m = StateSpaceModel(np.diag([0.3, 0.6]), np.eye(2))
        rep = full_volume(m, 4, "auto")
        assert rep.route == "direct"
        assert rep.volume > 0.0

    def test_infinite_horizon(self):
        eig = EigenStructure.from_spectrum([0.5, 0.8], [1.0, 1.0])
        rep = full_volume(eig, None)
        assert rep.route == "infinite"
        assert rep.volume == pytest.approx(4 * 5.0, rel=1e-12)
        with pytest.raises(ValueError):
            full_volume(eig, None, "direct")

    def test_flat_region_below_dimension(self):
        eig = EigenStructure.from_spectrum([0.5, 0.8], [1.0, 1.0])
        rep = full_volume(eig, 1)
        assert rep.volume == 0.0

    def test_prefactor_invariance_through_report(self):
        rng = np.random.default_rng(27)
        model = random_single_input(rng, random_spectrum(rng, 3))
        eig = diagonalize(model)
        base = full_volume(eig, 5, "analytic").volume
        scale = np.array([3.0, -0.25, 7.0])
        scaled = EigenStructure(eig.eigenvalues, eig.left_vectors * scale[:, None],
                                eig.modal_gains * scale)
        assert full_volume(scaled, 5, "analytic").volume == pytest.approx(
            base, rel=1e-12)

    def test_random_models_three_route_agreement(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            model = random_single_input(rng, random_spectrum(rng, n))
            N = int(rng.integers(n, 10))
            d = full_volume(model, N, "direct").volume
            r = full_volume(model, N, "recursive").volume
            a = full_volume(model, N, "analytic").volume
            assert r == pytest.approx(d, rel=1e-9)
            assert a == pytest.approx(d, rel=1e-9)


class TestTermFactors:
    """Each term's factors against the float definitions, not only sums of terms."""

    @staticmethod
    def check_terms(terms, lam, horizon, dist_mode, power_mode):
        n = len(lam)
        assert len(terms) == 2 ** n
        for t in terms:
            assert isinstance(t, SubsetTerm)
            comp = tuple(j for j in range(1, n + 1) if j not in t.subset)
            sub_lam = [lam[j - 1] for j in t.subset]
            comp_lam = [lam[j - 1] for j in comp]
            assert t.sign == sign_coefficient(t.subset, n)
            assert t.power == pytest.approx(power_factor(sub_lam, horizon, power_mode),
                                            rel=1e-13, abs=0.0)
            assert t.dist_in == pytest.approx(distribution_factor(sub_lam, dist_mode),
                                              rel=1e-13, abs=0.0)
            assert t.dist_out == pytest.approx(distribution_factor(comp_lam, dist_mode),
                                               rel=1e-13, abs=0.0)

    def test_discrete_terms(self):
        rng = np.random.default_rng(61)
        for _ in range(12):
            n = int(rng.integers(1, 9))
            lam = random_spectrum(rng, n)
            N = int(rng.integers(n, 3 * n + 2))
            terms = full_volume(EigenStructure.from_spectrum(lam), N, "analytic").terms
            self.check_terms(terms, lam, N, "discrete_positive", "discrete")

    def test_continuous_terms(self):
        rng = np.random.default_rng(62)
        for _ in range(12):
            n = int(rng.integers(1, 9))
            lam = -random_spectrum(rng, n, 0.2, 3.0, 0.05)[::-1]
            T = float(rng.uniform(0.1, 4.0))
            rep = ct_volume_analytic(ContinuousModel.from_spectrum(lam, np.ones(n), T))
            self.check_terms(rep.terms, lam, T, "continuous", "continuous")


def reference_sum(lam, horizon, mode):
    """The subset expansion at 120 digits, written apart from the kernel:
    (sum, cancellation sum|t| / |sum t|), both mpf.  Modes as the kernel's:
    "discrete" (powers lambda^N), "narrow" (lambda^-N), "continuous"
    (exp(lambda T), pairwise sums, 1/lambda)."""
    with mp.workdps(120):
        x = [mpf(float(v)) for v in lam]
        n = len(x)
        if mode == "continuous":
            power = [mp.exp(v * mpf(horizon)) for v in x]
            self_factor = [1 / v for v in x]
            pair = [[abs((b - a) / (a + b)) for b in x] for a in x]
        else:
            k = int(horizon) if mode == "discrete" else -int(horizon)
            power = [v ** k for v in x]
            self_factor = [1 / (1 - v) for v in x]
            pair = [[(b - a) / (1 - a * b) for b in x] for a in x]
        full = (1 << n) - 1
        phi, ups = [mpf(1)] * (full + 1), [mpf(1)] * (full + 1)
        for mask in range(1, full + 1):
            j = mask.bit_length() - 1
            rest = mask ^ (1 << j)
            p = phi[rest] * self_factor[j]
            for i in range(j):
                if rest >> i & 1:
                    p *= pair[i][j]
            phi[mask], ups[mask] = p, ups[rest] * power[j]
        terms = []
        for mask in range(full + 1):
            members = [j + 1 for j in range(n) if mask >> j & 1]
            sign = -1 if ((n + 1) * len(members) - sum(members)) % 2 else 1
            terms.append(sign * ups[mask] * phi[mask] * phi[full ^ mask])
        total = mp.fsum(terms)
        return total, mp.fsum(abs(t) for t in terms) / abs(total)


def _kernel_sum(lam, horizon, mode):
    """The normalized sum through the public route of each mode."""
    if mode == "discrete":
        return analytic_volume_sum(lam, horizon)
    if mode == "narrow":
        return narrow_volume_analytic(EigenStructure.from_spectrum(lam), horizon).normalized_sum
    model = ContinuousModel.from_spectrum(lam, np.ones(len(lam)), horizon)
    return ct_volume_analytic(model).normalized_sum


@st.composite
def adversarial_cases(draw):
    """A spectrum family, a mode and a horizon: evenly spaced, clustered,
    near 1 and near-reciprocal spectra, n <= 12.  Continuous time takes the
    family scaled onto (-3, 0)."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["even", "clustered", "near1", "reciprocal"]))
    if kind == "even":
        lo = draw(st.floats(0.02, 0.5))
        lam = np.linspace(lo, draw(st.floats(lo + 0.01 * n, 0.98)), n)
    elif kind == "clustered":
        gap = draw(st.floats(0.005, 0.03))
        lam = draw(st.floats(0.1, 0.9 - gap * n)) + gap * np.arange(n)
    elif kind == "near1":
        lam = 1.0 - np.logspace(-0.5, -draw(st.floats(1.0, 6.0)), n)
    else:
        lam = np.linspace(0.1, draw(st.floats(0.3, 0.8)), n)
        if n > 1:  # the largest eigenvalue moves near the reciprocal of the next
            lam[-1] = (1.0 + draw(st.floats(1e-4, 1e-2))) / lam[-2]
    lam = np.sort(lam)
    mode = draw(st.sampled_from(["discrete", "narrow", "continuous"]))
    if mode == "continuous":
        return np.sort(-3.0 * lam / lam[-1]), draw(st.floats(0.3, 3.0)), mode
    return lam, draw(st.integers(n, 3 * n)), mode


class TestKernelAccuracy:
    @given(adversarial_cases())
    @settings(max_examples=25, deadline=None)
    def test_against_120_digit_sum(self, case):
        lam, horizon, mode = case
        ref, cond = reference_sum(lam, horizon, mode)
        assume(cond < 1e90)  # 120 digits resolve the reference itself
        try:
            value = _kernel_sum(lam, horizon, mode)
        except SpectrumError as err:
            # refused only past the cap, never in its stead a wrong value
            assert err.classification is SpectrumClass.ILL_CONDITIONED
            assert cond > 10.0 ** (MAX_DPS - GUARD_DIGITS - 1)
            return
        assert value == pytest.approx(float(ref), rel=1e-13)


def _subset_tables(lam, horizon, mode):
    """Sign, power and distribution-factor tables indexed by subset bitmask.

    Each subset extends the prefix without its largest member j:
    phi(S+j) = phi(S) * prod_{i in S} pair(i, j) / self(j) and
    ups(S+j) = ups(S) * power(j), so all 2^n entries cost O(2^n n).
    Values are mpmath numbers at the caller's working precision.  This is
    the size-then-lex reference the kernel's double-double terms and its
    mpmath totals are tested against.
    """
    form, power = _EXPANSIONS[mode]
    pair_den, self_den, absolute = _FACTOR_FORMS[form]
    n = len(lam)
    x = [mpf(float(v)) for v in lam]
    pw = [power(v, horizon) for v in x]
    selfs = [self_den(v) for v in x]
    pair = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = (x[j] - x[i]) / pair_den(x[i], x[j])
            pair[i][j] = abs(p) if absolute else p
    sign = [1] * (1 << n)
    ups = [mpf(1)] * (1 << n)
    phi = [mpf(1)] * (1 << n)
    for sub, mask in _subsets(n):
        if not sub:
            continue
        j = sub[-1]
        prev = mask ^ (1 << j)
        p = phi[prev]
        for i in sub[:-1]:
            p *= pair[i][j]
        phi[mask] = p / selfs[j]
        ups[mask] = ups[prev] * pw[j]
        # sign (-1)**((n+1)s - sum of 1-based members) gains (-1)**(n - j)
        sign[mask] = sign[prev] if (n - j) % 2 == 0 else -sign[prev]
    return sign, ups, phi


def _exact_float(v):
    """The double nearest an mpf, by exact rational arithmetic (float() of an
    mpf rounds twice in the subnormal range)."""
    man, exp = v.man_exp
    return math.copysign(float(Fraction(man) * Fraction(2) ** exp), v) if v else 0.0


def _bit_cases():
    """Seeded spectra of every mode, near the anchor and far out; discrete and
    two discrete far requests have powers below 2^-969, one subnormal."""
    rng = np.random.default_rng(71)
    cases = []
    for n in (4, 6, 8, 9, 10):
        for far in (False, True):
            lam = np.sort(rng.uniform(0.05, 0.95, n))
            N = int(rng.integers(8 * n, 12 * n + 1) if far else rng.integers(n, 2 * n + 1))
            cases.append((lam, N, "discrete"))
            cases.append((np.sort(rng.uniform(0.45, 0.97, n)), N if not far else 2 * n,
                          "narrow"))
            ct = -np.sort(rng.uniform(0.2, 3.0, n))[::-1]
            cases.append((ct, 2.0 * n if far else float(rng.uniform(2.0, 6.0)), "continuous"))
    return cases


class TestPrecisionPaths:
    def test_double_double_bit_equal_to_40_digits(self):
        # every term, on both paths, and the double-double total equal the
        # reference at 40 digits rounded once; an mpmath total equals it at
        # the fallback's digits, and so do its terms
        dd = tiny = 0
        fallback = []
        anchors = [(np.linspace(0.05, 0.95, n), n, "discrete") for n in (12, 14)]
        for lam, horizon, mode in _bit_cases() + anchors:
            terms, total, precision = _expand(lam, horizon, mode)
            if precision.cond >= COND_DD:
                assert precision.path == "mpmath" and precision.dps >= DEFAULT_DPS
                fallback.append(mode)
            else:
                assert precision.path == "double-double"
                dd += 1
            full = (1 << len(lam)) - 1
            with mp.workdps(precision.dps if precision.path == "mpmath" else DEFAULT_DPS):
                sign, ups, phi = _subset_tables(lam, horizon, mode)
                masks = [sum(1 << (j - 1) for j in t.subset) for t in terms]
                vals = [sign[m] * ups[m] * phi[m] * phi[full ^ m] for m in masks]
                expected = [(t.subset, sign[m], _exact_float(ups[m]), _exact_float(phi[m]),
                             _exact_float(phi[full ^ m]), _exact_float(v))
                            for t, m, v in zip(terms, masks, vals)]
                assert total == _exact_float(mp.fsum(vals))
            assert [tuple(t) for t in terms] == expected
            tiny += any(0.0 < t.power < 2.0 ** -969 for t in terms)
        assert dd >= 20 and tiny >= 2
        assert len(fallback) >= 8
        assert set(fallback) == {"discrete", "narrow", "continuous"}

    def test_warm_table_gives_the_cold_bits(self):
        for lam, horizon, mode in _bit_cases():
            _dd_factor_table.cache_clear()
            cold = _expand(lam, horizon, mode)
            assert _dd_factor_table.cache_info().currsize == 1
            warm = _expand(lam, horizon, mode)
            assert _dd_factor_table.cache_info().hits >= 1
            assert repr(warm) == repr(cold)  # repr tells -0.0 from 0.0

    def test_narrow_and_discrete_share_one_table(self):
        # one table per spectrum and factor form, whichever mode built it
        lam = np.array([0.3, 0.55, 0.7, 0.9])
        cold = {}
        for mode, horizon in (("discrete", 7), ("continuous", 1.5)):
            _dd_factor_table.cache_clear()
            cold[mode] = repr(_expand(lam, horizon, mode))
        _dd_factor_table.cache_clear()
        _expand(lam, 7, "narrow")
        assert repr(_expand(lam, 7, "discrete")) == cold["discrete"]
        assert repr(_expand(lam, 1.5, "continuous")) == cold["continuous"]
        info = _dd_factor_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)

    def test_table_cache_is_bounded_and_read_only(self):
        rng = np.random.default_rng(72)
        for _ in range(3 * _dd_factor_table.cache_info().maxsize):
            lam = np.sort(rng.uniform(0.05, 0.95, 5))
            _expand(lam, 9, "discrete")
            info = _dd_factor_table.cache_info()
            assert info.currsize <= info.maxsize == 8
        for arr in _dd_factor_table(lam.tobytes(), "discrete_positive"):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("N", [10, 10 ** 6])
    def test_underflowing_powers_stay_double_double(self, N):
        # lambda^N far below the double range at N = 10^6: still the fast path
        rep = full_volume(EigenStructure.from_spectrum([0.5, 0.8]), N, "analytic")
        assert rep.precision.path == "double-double"
        assert rep.precision.dps == DD_DIGITS

    def test_sixteen_evenly_spaced_at_the_anchor(self):
        # cancels by 3.9e33: past double-double and past the old fixed 40
        # digits, which gave an answer 5.9e-9 off
        rep = full_volume(EigenStructure.from_spectrum(np.linspace(0.05, 0.95, 16)), 16,
                          "analytic")
        assert rep.precision.path == "mpmath"
        assert rep.precision.dps >= 53
        assert rep.precision.cond == pytest.approx(3.8846e33, rel=1e-4)
        # reference_sum(np.linspace(0.05, 0.95, 16), 16, "discrete") at 120 digits
        assert rep.normalized_sum == pytest.approx(2.1588097140842825635764e-70, rel=1e-13)

    def test_above_the_cap_refused_by_name(self):
        # at T = 1e-20 the terms cancel by far more than 10^MAX_DPS
        model = ContinuousModel.from_spectrum([-2.0, -1.5, -1.0, -0.5], np.ones(4), 1e-20)
        with pytest.raises(SpectrumError, match=f"cancels by .* at {MAX_DPS} digits") as err:
            ct_volume_analytic(model)
        assert err.value.classification is SpectrumClass.ILL_CONDITIONED

    def test_every_expansion_report_says_its_precision(self):
        eig = EigenStructure.from_spectrum([0.3, 0.6, 0.8])
        neg = EigenStructure.from_spectrum([-0.8, -0.6, -0.3])
        reports = [full_volume(eig, 5, "analytic"), full_volume(neg, 5, "auto"),
                   narrow_volume_analytic(eig, 5),
                   ct_volume_analytic(ContinuousModel.from_spectrum([-2.0, -1.0], [1, 1], 1.5))]
        for rep in reports:
            assert rep.precision.path == "double-double"
            assert 1.0 <= rep.precision.cond < COND_DD
        assert full_volume(eig, 5, "recursive").precision is None
        assert full_volume(eig, 2, "analytic").precision is None  # flat region
