"""Capability factor deconstruction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachvol.analytic import analytic_volume_terms, full_volume
from reachvol.factors import (
    build_factor_report,
    cross_factor,
    modal_controllability,
    shape_factor,
    side_lengths,
)
from reachvol.model import (
    EPS_SING,
    EigenStructure,
    SingularFactorError,
    StateSpaceModel,
    VolumeDomainError,
    diagonalize,
    narrow_generators,
    reachability_generators,
)
from reachvol.sampling import random_single_input, random_spectrum


class TestShapeFactor:
    def test_single_eigenvalue_empty_product(self):
        f1, pairs, (plus, minus) = shape_factor([0.5])
        assert f1 == 1.0
        assert plus == () and minus == (1,)

    def test_pair_by_hand(self):
        f1, _, _ = shape_factor([0.3, 0.7])
        assert f1 == pytest.approx(0.4 / 0.79)

    def test_continuous_pair_by_hand(self):
        f1, _, (plus, minus) = shape_factor([-2.0, -1.0], "continuous")
        assert f1 == pytest.approx(1.0 / 3.0)
        assert plus == () and minus == (1, 2)

    def test_partition_split_excludes_cross_pairs(self):
        # reciprocal cross-partition pair would be singular; F1 ignores it
        f1, pairs, (plus, minus) = shape_factor([0.5, 2.0])
        assert f1 == 1.0
        assert plus == (2,) and minus == (1,)
        assert math.isinf(pairs[0, 1])

    def test_threshold_eigenvalue_rejected(self):
        with pytest.raises(SingularFactorError):
            shape_factor([0.5, 1.0])
        with pytest.raises(SingularFactorError):
            shape_factor([-1.0, 0.0], "continuous")

    def test_pair_matrix_symmetric_positive(self):
        rng = np.random.default_rng(31)
        lam = random_spectrum(rng, 4)
        _, pairs, _ = shape_factor(lam)
        assert np.allclose(pairs, pairs.T)
        assert np.all(pairs > 0.0)

    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_pair_matrix_matches_scalar_loop(self, lam, data):
        # a point near a reciprocal (discrete) or an opposite (continuous)
        # makes an inf entry where the pair straddles the partition
        x = data.draw(st.sampled_from(lam))
        lam.append(data.draw(st.sampled_from([1.0 / x if x else 2.0, -x]))
                   + data.draw(st.sampled_from([0.0, 5e-11, -1e-10, 1e-9])))
        for mode in ("discrete", "continuous"):
            try:
                _, pairs, _ = shape_factor(lam, mode)
            except SingularFactorError:
                continue
            ref = np.ones((len(lam), len(lam)))
            for a in range(len(lam)):
                for b in range(a + 1, len(lam)):
                    den = 1.0 - lam[a] * lam[b] if mode == "discrete" else lam[a] + lam[b]
                    ref[a, b] = ref[b, a] = math.inf if abs(den) < EPS_SING \
                        else abs((lam[b] - lam[a]) / den)
            assert repr(pairs.tolist()) == repr(ref.tolist())

    def test_depends_only_on_spectrum(self):
        lam = [0.2, 0.6, 0.9]
        a = shape_factor(lam)[0]
        b = shape_factor(np.asarray(lam))[0]
        assert a == b


class TestCrossFactor:
    def test_empty_subset(self):
        assert cross_factor((), (1, 2), [0.3, 0.7]) == 1.0

    def test_pair_by_hand(self):
        assert cross_factor((1,), (2,), [0.3, 0.7]) == pytest.approx(
            (1 - 0.21) / 0.4)

    def test_regroups_distribution_factors(self):
        # dist(sub) * dist(comp) = cross(sub, comp) * dist(all)
        from reachvol.analytic import distribution_factor
        lam = [0.2, 0.45, 0.8]
        for sub, comp in (((1,), (2, 3)), ((2,), (1, 3)), ((1, 3), (2,)),
                          ((), (1, 2, 3)), ((1, 2, 3), ())):
            lhs = (distribution_factor([lam[j - 1] for j in sub])
                   * distribution_factor([lam[j - 1] for j in comp]))
            rhs = cross_factor(sub, comp, lam) * distribution_factor(lam)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            cross_factor((1, 2), (2, 3), [0.1, 0.2, 0.3])

    def test_singular_denominator_rejected(self):
        with pytest.raises(SingularFactorError):
            cross_factor((1,), (2,), [0.5, 0.5])


class TestSideLengths:
    def test_infinite_scalar(self):
        eig = EigenStructure.from_spectrum([0.5], [1.0])
        assert side_lengths(eig, "infinite") == pytest.approx((2.0,))

    def test_finite_matches_geometric_sum(self):
        eig = EigenStructure.from_spectrum([0.5], [1.0])
        assert side_lengths(eig, "finite", 3) == pytest.approx((1.75,))

    def test_continuous_scalar(self):
        eig = EigenStructure.from_spectrum([-1.0], [1.0])
        assert side_lengths(eig, "continuous", 1.0) == pytest.approx(
            (1.0 - math.exp(-1.0),))

    def test_narrow_scalar(self):
        eig = EigenStructure.from_spectrum([2.0], [1.0])
        # |1 - 2^-2| / |1 - 2| = 0.75
        assert side_lengths(eig, "narrow", 2) == pytest.approx((0.75,))

    def test_finite_converges_to_infinite(self):
        eig = EigenStructure.from_spectrum([0.3, 0.8], [1.0, 0.5])
        inf_vals = np.array(side_lengths(eig, "infinite"))
        fin_vals = np.array(side_lengths(eig, "finite", 200))
        assert np.allclose(fin_vals, inf_vals, rtol=1e-12)

    def test_negative_eigenvalue_half_width(self):
        # u_k = (-1)^k keeps every step's contribution to the mode positive:
        # 1 + 0.5 at N = 2, and the finite widths converge to the infinite one
        eig = EigenStructure.from_spectrum([-0.5], [1.0])
        assert side_lengths(eig, "finite", 2) == (1.5,)
        (fin,), (inf,) = side_lengths(eig, "finite", 200), side_lengths(eig, "infinite")
        assert inf == 2.0 and abs(fin - inf) <= 1e-12

    @pytest.mark.parametrize("N", [1, 2, 5, 10])
    def test_mixed_sign_matches_brute_force_half_widths(self, N):
        # each side length is the largest |q_i x| over the vertices x of the
        # region, the images of the 2^N sign inputs
        model = StateSpaceModel([[-0.4, 0.9], [0.3, 0.5]], [[1.0], [-0.6]])
        eig = diagonalize(model)
        assert eig.eigenvalues[0] < 0.0 < eig.eigenvalues[1]
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=N))).T
        for mode, G in (("finite", reachability_generators(model, N)),
                        ("narrow", narrow_generators(model, N))):
            widths = np.max(np.abs(eig.left_vectors @ G @ signs), axis=1)
            np.testing.assert_allclose(side_lengths(eig, mode, N), widths, rtol=1e-12)

    def test_infinite_requires_subunit(self):
        eig = EigenStructure.from_spectrum([1.5], [1.0])
        with pytest.raises(VolumeDomainError):
            side_lengths(eig, "infinite")

    def test_magnitude_reading_above_one(self):
        eig = EigenStructure.from_spectrum([2.0], [1.0])
        (val,) = side_lengths(eig, "finite", 3)
        assert val == pytest.approx(abs(1 - 8) / abs(1 - 2))
        assert val > 0.0


class TestModalControllability:
    def test_diagonal_full_coupling(self):
        eig = EigenStructure.from_spectrum([0.5, 0.8], [1.0, 1.0])
        assert modal_controllability(eig) == (1.0, 1.0)

    def test_orthogonal_mode_flagged_zero(self):
        m = StateSpaceModel(np.diag([0.5, 0.8]), [[0.0], [1.0]])
        eig = diagonalize(m)
        assert modal_controllability(eig) == pytest.approx((0.0, 1.0))

    def test_companion_strictly_positive(self):
        m = StateSpaceModel([[0.0, 1.0], [-0.12, 0.7]], [[0.0], [1.0]])
        vals = modal_controllability(diagonalize(m))
        assert all(v > 0.0 for v in vals)

    def test_zero_gain_collapses_volume(self):
        eig = EigenStructure.from_spectrum([0.5, 0.8], [0.0, 1.0])
        assert full_volume(eig, 6, "direct").volume == pytest.approx(0.0, abs=1e-15)


class TestDominantTerm:
    def test_largest_term_selects_unstable_subset(self):
        # eigenvalues above 1 dominate the expansion magnitude at long horizons
        lam = [0.6, 1.4, 2.3]
        N = 4 * len(lam)
        terms = analytic_volume_terms(lam, N)
        biggest = max(terms, key=lambda t: abs(t.power * t.dist_in * t.dist_out))
        assert biggest.subset == (2, 3)

    def test_random_mixed_spectra(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            low = random_spectrum(rng, 2, 0.1, 0.8, 0.05)
            high = random_spectrum(rng, 2, 1.3, 2.5, 0.05)
            lam = np.concatenate([low, high])
            prods = np.outer(lam, lam)[np.triu_indices(4, 1)]
            if np.any(np.abs(1 - prods) < 0.05) or np.any(np.abs(1 - lam) < 0.05):
                continue
            terms = analytic_volume_terms(lam, 4 * lam.size)
            biggest = max(terms, key=lambda t: abs(t.power * t.dist_in * t.dist_out))
            assert biggest.subset == (3, 4)


class TestFactorReport:
    def test_report_shapes(self):
        rng = np.random.default_rng(33)
        model = random_single_input(rng, random_spectrum(rng, 3))
        eig = diagonalize(model)
        rep = build_factor_report(eig, "finite", 8)
        assert rep.F1 > 0.0
        assert rep.F1_pairs.shape == (3, 3)
        assert len(rep.F2) == 3 and len(rep.F3) == 3
        assert set(rep.p_plus) | set(rep.p_minus) == {1, 2, 3}

    def test_infinite_report(self):
        eig = EigenStructure.from_spectrum([0.5, 0.8], [1.0, 1.0])
        rep = build_factor_report(eig, "infinite")
        assert rep.F2 == pytest.approx((2.0, 5.0))
