"""Narrow regions, negative spectra, and continuous time."""

import json
import math
import sys
from itertools import combinations

import numpy as np
import pytest
from mpmath import mp, mpf

from reachvol import cli, extensions
from reachvol import model as reachvol_model
from reachvol.analytic import _dd_factor_table, full_volume, infinite_volume_sum
from reachvol.extensions import (
    ContinuousModel,
    ct_discretized_oracle,
    ct_volume_analytic,
    narrow_via_relation,
    narrow_volume_analytic,
    negative_spectrum_volume,
    volume,
)
from reachvol.model import (
    EigenStructure,
    SpectrumClass,
    SpectrumError,
    StateSpaceModel,
    VolumeDomainError,
    diagonalize,
    load_model,
    narrow_generators,
    reachability_generators,
)
from reachvol.sampling import (
    random_negative_spectrum,
    random_single_input,
    random_spectrum,
)
from reachvol.zonotope import symmetric_volume


class TestNarrowVolumeAnalytic:
    def test_scalar_single_step(self):
        eig = EigenStructure.from_spectrum([2.0], [1.0])
        rep = narrow_volume_analytic(eig, 1)
        # generators {A^-1 B} = {0.5}: symmetric volume 1
        assert rep.volume == pytest.approx(1.0, rel=1e-12)
        assert rep.normalized_sum == pytest.approx(-0.5, rel=1e-12)

    def test_matches_generator_oracle(self):
        eig = EigenStructure.from_spectrum([1.25, 2.0], [1.0, 1.0])
        model = eig.to_model()
        rep = narrow_volume_analytic(eig, 4)
        oracle = symmetric_volume(narrow_generators(model, 4))
        assert rep.volume == pytest.approx(oracle, rel=1e-9)

    def test_long_horizon_approaches_inverse_spectrum_limit(self):
        eig = EigenStructure.from_spectrum([1.25, 2.0], [1.0, 1.0])
        # |det A|^-1 * 2^n * infinite sum of the inverse spectrum (0.5, 0.8)
        limit = 4 * infinite_volume_sum([0.5, 0.8]) / 2.5
        assert limit == pytest.approx(8.0, rel=1e-12)
        vol = narrow_volume_analytic(eig, 40).volume
        assert vol == pytest.approx(limit, abs=0.01)

    def test_subunit_spectrum_finite_horizon(self):
        # narrow volumes exist at finite N also below the unit circle
        eig = EigenStructure.from_spectrum([0.5], [1.0])
        rep = narrow_volume_analytic(eig, 2)
        # generators {4, 2}: symmetric volume 2*(4+2)
        assert rep.volume == pytest.approx(12.0, rel=1e-12)

    def test_random_oracle_agreement(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            lam = random_spectrum(rng, n, 1.05, 3.0, 0.05)
            prods = np.outer(lam, lam)[np.triu_indices(n, 1)]
            if np.any(np.abs(1 - prods) < 1e-3):
                continue
            model = random_single_input(rng, lam)
            N = int(rng.integers(n, 11))
            rep = narrow_volume_analytic(diagonalize(model), N)
            oracle = symmetric_volume(narrow_generators(model, N))
            assert rep.volume == pytest.approx(oracle, rel=1e-9)

    def test_unit_eigenvalue_rejected(self):
        eig = EigenStructure.from_spectrum([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(SpectrumError):
            narrow_volume_analytic(eig, 3)


class TestNegativeSpectrumVolume:
    def test_scalar_hand_value(self):
        eig = EigenStructure.from_spectrum([-0.5], [1.0])
        rep = negative_spectrum_volume(eig, 3)
        # P_3 = [1, -0.5, 0.25]: symmetric volume 2 * 1.75
        assert rep.volume == pytest.approx(3.5, rel=1e-12)

    def test_pair_matches_generator_oracle(self):
        eig = EigenStructure.from_spectrum([-0.8, -0.3], [1.0, 1.0])
        rep = negative_spectrum_volume(eig, 4)
        oracle = symmetric_volume(reachability_generators(eig.to_model(), 4))
        assert rep.volume == pytest.approx(oracle, rel=1e-9)

    def test_mixed_sign_rejected(self):
        eig = EigenStructure.from_spectrum([-0.5, 0.5], [1.0, 1.0])
        with pytest.raises(SpectrumError):
            negative_spectrum_volume(eig, 4)

    def test_random_oracle_agreement_all_N(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            lam = random_negative_spectrum(rng, n)
            model = random_single_input(rng, lam)
            N = int(rng.integers(n, 13))
            rep = negative_spectrum_volume(diagonalize(model), N)
            oracle = symmetric_volume(reachability_generators(model, N))
            assert rep.volume == pytest.approx(oracle, rel=1e-9)

    def test_equals_modulus_spectrum_volume(self):
        # column sign flips drop out of the absolute determinants
        neg = EigenStructure.from_spectrum([-0.7, -0.2], [1.0, 1.0])
        pos = EigenStructure.from_spectrum([0.2, 0.7], [1.0, 1.0])
        for N in (2, 3, 5, 8):
            assert negative_spectrum_volume(neg, N).volume == pytest.approx(
                full_volume(pos, N, "analytic").volume, rel=1e-12)


class TestContinuousTime:
    def test_scalar_exact_integral(self):
        model = ContinuousModel.from_spectrum([-1.0], [1.0], 1.0)
        rep = ct_volume_analytic(model)
        assert rep.volume == pytest.approx(2 * (1 - math.exp(-1.0)), rel=1e-12)
        assert rep.normalized_sum == pytest.approx(-(1 - math.exp(-1.0)), rel=1e-12)

    def test_zero_horizon_zero_volume(self):
        model = ContinuousModel.from_spectrum([-1.0, -2.0], [1.0, 1.0], 0.0)
        assert ct_volume_analytic(model).volume == pytest.approx(0.0, abs=1e-12)

    def test_pair_against_fine_oracle(self, monkeypatch):
        model = ContinuousModel.from_spectrum([-2.0, -1.0], [1.0, 1.0], 2.0)
        rep = ct_volume_analytic(model)
        monkeypatch.setattr(extensions, "ORACLE_MAX_TERMS", 250_000_000)
        oracle = ct_discretized_oracle(model, 1e-4)
        assert rep.volume == pytest.approx(oracle, rel=1e-3)

    def test_nonstable_spectrum_warns(self):
        model = ContinuousModel.from_spectrum([-1.0, 0.5], [1.0, 1.0], 1.0)
        rep = ct_volume_analytic(model)
        assert any("stable" in w for w in rep.warnings)

    def test_nonzero_spectrum_required(self):
        model = ContinuousModel.from_spectrum([0.0, 1.0], [1.0, 1.0], 1.0)
        with pytest.raises(SpectrumError):
            ct_volume_analytic(model)

    def test_opposite_pair_sum_rejected(self):
        model = ContinuousModel.from_spectrum([-0.5, 0.5], [1.0, 1.0], 1.0)
        with pytest.raises(SpectrumError):
            ct_volume_analytic(model)

    def test_heavy_cancellation_matches_120_digit_sum(self):
        # terms cancel by about 1e12 here: every power factor exp(T * sum)
        # must be formed in working precision, not from a double exponent
        lam = np.sort(-np.linspace(0.2, 3.0, 8))
        T = 2.8
        rep = ct_volume_analytic(ContinuousModel.from_spectrum(lam, np.ones(8), T))
        n = lam.size
        with mp.workdps(120):
            x = [mpf(float(v)) for v in lam]

            def phi(sel):
                p = mpf(1)
                for a, b in combinations(sel, 2):
                    p *= (x[b] - x[a]) / (x[a] + x[b])
                p = abs(p)
                for a in sel:
                    p /= x[a]
                return p

            total = magnitude = mpf(0)
            for s in range(n + 1):
                for sub in combinations(range(n), s):
                    comp = tuple(j for j in range(n) if j not in sub)
                    sign = (-1) ** ((n + 1) * s - sum(j + 1 for j in sub))
                    term = sign * mp.exp(T * sum(x[j] for j in sub)) * phi(sub) * phi(comp)
                    total += term
                    magnitude += abs(term)
            assert magnitude / abs(total) > 1e11
            ref = float(total)
        assert rep.normalized_sum == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestVolumeDispatcher:
    # lambda = 0.3, 0.4: the continuous closed form gives 279.96 here, while
    # the Riemann oracle converges to about 11.01 (11.0078 at dt = 1e-3,
    # 11.0097 at dt = 5e-4)
    UNSTABLE = StateSpaceModel(np.array([[0.0, 1.0], [-0.12, 0.7]]), np.array([[0.0], [1.0]]))

    def test_continuous_auto_refuses_closed_form_off_negative_spectrum(self):
        with pytest.raises(SpectrumError, match="all-negative"):
            volume(self.UNSTABLE, 2.0, "continuous")

    def test_continuous_auto_takes_oracle_with_dt(self):
        rep = volume(self.UNSTABLE, 2.0, "continuous", dt=1e-3)
        assert rep.route == "direct"
        assert any("all-negative" in w for w in rep.warnings)
        cmodel = ContinuousModel(self.UNSTABLE.A, self.UNSTABLE.B, 2.0)
        assert rep.volume == ct_discretized_oracle(cmodel, 1e-3)
        assert rep.volume == pytest.approx(11.01, rel=1e-3)
        # the analytic route still answers, with its warning, far off
        analytic = volume(self.UNSTABLE, 2.0, "continuous", "analytic")
        assert any("stable" in w for w in analytic.warnings)
        assert analytic.volume > 20.0 * rep.volume

    @pytest.mark.parametrize("mode", ["narrow", "negative"])
    @pytest.mark.parametrize("route", ["auto", "analytic"])
    def test_horizon_below_dimension_is_flat(self, mode, route):
        # whatever the spectrum: neither is all negative, (0.5, 2) is reciprocal
        reports = [volume(EigenStructure.from_spectrum(lam), 2, mode, route)
                   for lam in ([0.3, 0.6, 0.9], [0.5, 0.7, 2.0])]
        if mode == "negative":
            # the negative-mode closed form, called directly, answers the same
            neg = EigenStructure.from_spectrum([-0.9, -0.6, -0.3])
            reports += [volume(neg, 2, mode, route), negative_spectrum_volume(neg, 2),
                        negative_spectrum_volume(neg.to_model(), 2)]
        for rep in reports:
            assert (rep.volume, rep.route) == (0.0, "analytic")
            assert rep.warnings == ("N < n: flat region, volume 0",)


class TestDispatchRules:
    """One flat rule, one classification and one auto fallback per mode."""

    # n = 2, r = 2: one step already gives n generators
    TWO_INPUT = StateSpaceModel(np.array([[0.5, 0.1], [0.0, 0.8]]), np.eye(2))
    NARROW_ORACLE = "analytic narrow route refused; used generator oracle"

    def test_two_input_narrow_auto_takes_generator_oracle(self):
        for N, expected in ((1, 10.0), (3, 283.75)):
            rep = volume(self.TWO_INPUT, N, "narrow")
            direct = volume(self.TWO_INPUT, N, "narrow", "direct")
            assert rep.volume == direct.volume == pytest.approx(expected, rel=1e-12)
            assert (rep.route, rep.warnings) == ("direct", (self.NARROW_ORACLE,))

    @pytest.mark.parametrize("mode,route,direct", [("narrow", "analytic", 10.0),
                                                   ("negative", "auto", 4.0),
                                                   ("negative", "analytic", 4.0)])
    def test_two_input_one_step_is_not_flat(self, mode, route, direct):
        # r N = n generators span a full-dimensional region; without a
        # closed form for two inputs these refuse, as they do at N = n
        assert volume(self.TWO_INPUT, 1, mode, "direct").volume == pytest.approx(direct)
        for N in (1, 2):
            with pytest.raises(ValueError, match="single input column"):
                volume(self.TWO_INPUT, N, mode, route)

    def test_unit_modulus_negative_spectrum_takes_recursion(self):
        eig = EigenStructure.from_spectrum([-1.0, -0.5])
        rep = volume(eig, 4)
        assert (rep.route, rep.volume) == ("recursive", pytest.approx(11.5, rel=1e-12))
        assert rep.volume == pytest.approx(volume(eig, 4, route="direct").volume, rel=1e-12)
        assert rep.spectrum is SpectrumClass.NEAR_SINGULAR_FACTOR
        assert rep.warnings == (
            "all-negative spectrum: evaluated on |lambda| sorted ascending",
            "analytic route refused (NearSingularFactor); used recursion")
        assert volume(eig, 4, route="recursive").spectrum is SpectrumClass.NEAR_SINGULAR_FACTOR

    @pytest.mark.parametrize("route", ["auto", "recursive", "analytic"])
    def test_fewer_generators_than_dimensions_is_flat_whatever_the_model(self, route):
        complex_pair = StateSpaceModel(
            np.array([[0.0, -0.8, 0.0], [0.8, 0.0, 0.0], [0.0, 0.0, 0.5]]), np.ones((3, 1)))
        two_input = StateSpaceModel(np.diag([0.5, 0.8, -0.4]),
                                    np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        cases = [(complex_pair, 2, mode) for mode in ("discrete", "narrow", "negative")]
        cases += [(two_input, 1, mode) for mode in ("discrete", "narrow", "negative")]
        cases += [(EigenStructure.from_spectrum([0.3, 0.6, 0.9]), 2, "discrete"),
                  (EigenStructure.from_spectrum([-0.9, -0.6, -0.3]), 2, "negative")]
        for system, N, mode in cases:
            rep = volume(system, N, mode, route)
            assert (rep.volume, rep.spectrum) == (0.0, None), (mode, N)
            assert rep.route == ("analytic" if route == "auto" else route)
            assert rep.warnings == ("N < n: flat region, volume 0",)

    @pytest.mark.parametrize("mode", ["narrow", "negative"])
    @pytest.mark.parametrize("route", ["auto", "analytic"])
    def test_nonpositive_horizon_is_refused_by_one_rule(self, mode, route):
        for lam in ([0.3, 0.6, 0.9], [-0.9, -0.6, -0.3], [0.5, 0.7, 2.0]):
            with pytest.raises(ValueError, match=r"N must be >= 1, got 0"):
                volume(EigenStructure.from_spectrum(lam), 0, mode, route)


def _count_spectral_work(monkeypatch):
    """Counters of classify_spectrum and diagonalize (wrapped in every reachvol
    namespace, as benchmark/tracer.py wraps them) and of numpy's
    eigendecompositions."""
    counts = {"classify": 0, "diagonalize": 0, "eig": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, fn in (("classify", reachvol_model.classify_spectrum),
                    ("diagonalize", reachvol_model.diagonalize)):
        wrapped = counted(key, fn)
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "reachvol" or name.startswith("reachvol.")):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapped)
    monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eig", np.linalg.eigvals))
    return counts


@pytest.mark.parametrize("lam,horizon,mode,kwargs,route", [
    ([0.3, 0.6, 0.9], 5, "discrete", {}, "analytic"),
    ([0.5, 0.7, 2.0], 5, "discrete", {}, "recursive"),
    ([-1.0, -0.6, -0.3], 5, "discrete", {}, "recursive"),
    ([-0.9, -0.6, -0.3], 5, "negative", {}, "analytic"),
    ([1.25, 1.6, 2.0], 5, "narrow", {}, "analytic"),
    ([-2.0, -1.0, -0.5], 1.0, "continuous", {}, "analytic"),
    ([-0.5, 0.3, 0.9], 1.0, "continuous", {"dt": 0.1}, "direct"),
], ids=["discrete", "recursion-fallback", "recursion-moduli", "negative", "narrow",
        "continuous", "continuous-oracle"])
def test_one_classification_and_one_eigendecomposition_per_volume(
        monkeypatch, lam, horizon, mode, kwargs, route):
    model = random_single_input(np.random.default_rng(5), np.array(lam))
    counts = _count_spectral_work(monkeypatch)
    rep = volume(model, horizon, mode, **kwargs)
    assert rep.route == route
    assert counts["classify"] <= 1
    assert counts["eig"] == counts["diagonalize"] == 1


@pytest.mark.parametrize("mode", ["discrete", "narrow", "negative"])
@pytest.mark.parametrize("top", [4, 40])
def test_sweep_decomposes_and_tabulates_once(monkeypatch, tmp_path, capsys, mode, top):
    # whatever its row count, a sweep on a matrix-form model diagonalizes
    # once and builds the distribution-factor table once
    lam = {"discrete": [0.3, 0.6, 0.9], "narrow": [1.25, 1.6, 2.0],
           "negative": [-0.9, -0.6, -0.3]}[mode]
    model = random_single_input(np.random.default_rng(9), np.array(lam))
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": model.A.tolist(), "B": model.B.tolist()}))
    counts = _count_spectral_work(monkeypatch)
    _dd_factor_table.cache_clear()
    assert cli.main(["sweep", "--model", str(path), "--N", str(top), "--mode", mode]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + top - 2
    assert counts["eig"] == counts["diagonalize"] == 1
    info = _dd_factor_table.cache_info()
    assert (info.misses, info.hits) == (1, top - 3)


@pytest.mark.parametrize("A,B", [
    ([[0.5, -0.4], [0.4, 0.5]], [[1.0], [0.5]]),
    ([[0.5, 1.0], [0.0, 0.5]], [[1.0], [1.0]]),
    ([[0.5, 0.1], [0.0, 0.7]], [[1.0, 0.0], [0.0, 1.0]]),
], ids=["complex", "repeated", "two-input"])
def test_refused_sweep_decomposes_once(monkeypatch, tmp_path, capsys, A, B):
    # diagonalize refuses the model; the sweep asks for its decomposition
    # once per row and once for the infinite horizon, and pays for one
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": A, "B": B}))
    # each row on a model of its own, which shares no decomposition
    expected = ["N,V_N,volume"] + [f"{N},nan,{cli._fmt(full_volume(load_model(path), N).volume)}"
                                   for N in range(2, 22)]
    counts = _count_spectral_work(monkeypatch)
    assert cli.main(["sweep", "--model", str(path), "--N", "21"]) == 0
    assert capsys.readouterr().out.splitlines() == expected
    assert counts["diagonalize"] == 1


class TestCtDiscretizedOracle:
    def test_scalar_riemann_sum(self):
        model = ContinuousModel.from_spectrum([-1.0], [1.0], 1.0)
        val = ct_discretized_oracle(model, 0.01)
        assert val == pytest.approx(2 * (1 - math.exp(-1.0)), rel=0.01)

    def test_first_order_convergence(self):
        model = ContinuousModel.from_spectrum([-2.0, -1.0], [1.0, 1.0], 1.0)
        exact = ct_volume_analytic(model).volume
        e1 = abs(ct_discretized_oracle(model, 0.02) - exact)
        e2 = abs(ct_discretized_oracle(model, 0.01) - exact)
        assert e2 == pytest.approx(e1 / 2, rel=0.15)

    def test_dt_bounds(self):
        model = ContinuousModel.from_spectrum([-1.0], [1.0], 1.0)
        with pytest.raises(ValueError):
            ct_discretized_oracle(model, 1.0)
        with pytest.raises(ValueError):
            ct_discretized_oracle(model, 0.0)

    def test_budget_advice(self, monkeypatch):
        model = ContinuousModel.from_spectrum([-1.0, -2.0, -3.0], [1, 1, 1], 1.0)
        monkeypatch.setattr(extensions, "ORACLE_MAX_TERMS", 1000)
        with pytest.raises(ValueError, match="larger dt"):
            ct_discretized_oracle(model, 1e-4)

    def test_nondiagonal_model_matches_spectral_twin(self):
        rng = np.random.default_rng(43)
        lam = np.array([-1.5, -0.4])
        model = random_single_input(rng, lam)
        eig = diagonalize(model)
        full = ContinuousModel(model.A, model.B, 1.0)
        # the oracle on the full model equals prefactor-scaled diagonal oracle
        diag_twin = ContinuousModel.from_spectrum(lam, eig.modal_gains, 1.0)
        v_full = ct_discretized_oracle(full, 0.01)
        v_diag = ct_discretized_oracle(diag_twin, 0.01)
        assert v_full == pytest.approx(v_diag * eig.det_inverse_abs, rel=1e-9)


class TestNarrowViaRelation:
    def test_scalar_hand_value(self):
        model = StateSpaceModel([[2.0]], [[1.0]])
        # 0.5 * symmetric_volume([1, 0.5]) = 0.5 * 2 * 1.5
        assert narrow_via_relation(model, 2, "direct") == pytest.approx(1.5)

    def test_cross_route_agreement(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            lam = random_spectrum(rng, 2, 1.1, 2.8, 0.1)
            if abs(lam[0] * lam[1] - 1) < 1e-3:
                continue
            model = random_single_input(rng, lam)
            assert narrow_via_relation(model, 5) == pytest.approx(
                narrow_volume_analytic(diagonalize(model), 5).volume, rel=1e-9)

    def test_identity_matrix_direct_path_still_works(self):
        model = StateSpaceModel(np.eye(2), [[1.0], [1.0]])
        with pytest.raises((SpectrumError, VolumeDomainError)):
            narrow_volume_analytic(model, 3)
        vol = narrow_via_relation(model, 3, "direct")
        assert vol == pytest.approx(
            symmetric_volume(narrow_generators(model, 3)), rel=1e-12)

    def test_singular_A_rejected(self):
        model = StateSpaceModel([[1.0, 0.0], [1.0, 0.0]], [[1.0], [0.0]])
        with pytest.raises(VolumeDomainError):
            narrow_via_relation(model, 3)
