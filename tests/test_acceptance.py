"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Each test prints its verdict with the measured worst case before
asserting, so a full run (pytest -s tests/test_acceptance.py) reads as a
checklist.  Random draws are seeded; margins quoted in comments were
measured on this implementation.
"""

import math
import timeit

import numpy as np
import pytest

from reachvol.analytic import (
    analytic_volume_sum,
    analytic_volume_terms,
    deletion_identity_residual,
    full_volume,
    infinite_volume_sum,
    quasi_vandermonde,
    recursive_volume_sum,
    substitution_identity_residuals,
)
from reachvol.extensions import (
    ContinuousModel,
    ct_discretized_oracle,
    ct_volume_analytic,
    narrow_volume_analytic,
)
from reachvol.model import (
    EigenStructure,
    StateSpaceModel,
    diagonalize,
    narrow_generators,
    reachability_generators,
)
from reachvol.sampling import (
    random_invertible,
    random_negative_spectrum,
    random_single_input,
    random_spectrum,
)
from reachvol.zonotope import determinant_count, symmetric_volume, unit_cube_volume


def _verdict(name, ok, detail=""):
    line = f"acceptance {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def power_matrix_volume(lam, N):
    lam = np.asarray(lam, float)
    return unit_cube_volume(lam[:, None] ** np.arange(int(N))[None, :])


def test_01_three_route_equivalence():
    """200 seeded cases: analytic, recursive, direct agree to 1e-9, < 30 s."""
    import time
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        lam = random_spectrum(rng, n, 0.05, 0.95, 0.02)
        N = int(rng.integers(n, 13))
        direct = power_matrix_volume(lam, N)
        ana = analytic_volume_sum(lam, N)
        rec = recursive_volume_sum(lam, N)
        worst = max(worst, abs(ana - direct) / direct, abs(rec - direct) / direct,
                    abs(ana - rec) / max(ana, rec))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    assert _verdict("01 three-route equivalence",
                    ok, f"worst rel dev {worst:.3e}, {elapsed:.2f}s")


def test_02_vandermonde_anchor():
    """At N = n the expansion equals the Vandermonde product to 1e-12."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        lam = random_spectrum(rng, n, 0.05, 0.95, 0.02)
        vander = math.prod(lam[b] - lam[a]
                           for a in range(n) for b in range(a + 1, n))
        worst = max(worst, abs(analytic_volume_sum(lam, n) - vander) / abs(vander))
    assert _verdict("02 N=n anchor", worst < 1e-12, f"worst rel dev {worst:.3e}")


def _phi(lam):
    p = 1.0
    for a in range(len(lam)):
        for b in range(a + 1, len(lam)):
            p *= (lam[b] - lam[a]) / (1.0 - lam[a] * lam[b])
    for x in lam:
        p /= 1.0 - x
    return p


def test_03_closed_form_anchors():
    """n=2 and n=3 expansions reproduce the closed prints termwise, 1e-12."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(50):
        if trial % 2 == 0:
            l1, l2 = random_spectrum(rng, 2, 0.05, 0.95, 0.05)
            N = int(rng.integers(2, 13))
            expected = {
                (): _phi([l1, l2]),
                (1,): l1 ** N * _phi([l1]) * _phi([l2]),
                (2,): -(l2 ** N) * _phi([l2]) * _phi([l1]),
                (1, 2): -((l1 * l2) ** N) * _phi([l1, l2]),
            }
            terms = analytic_volume_terms([l1, l2], N)
        else:
            l1, l2, l3 = random_spectrum(rng, 3, 0.05, 0.95, 0.05)
            N = int(rng.integers(3, 13))
            expected = {
                (): _phi([l1, l2, l3]),
                (1,): -(l1 ** N) * _phi([l1]) * _phi([l2, l3]),
                (2,): l2 ** N * _phi([l2]) * _phi([l1, l3]),
                (3,): -(l3 ** N) * _phi([l3]) * _phi([l1, l2]),
                (1, 2): -((l1 * l2) ** N) * _phi([l1, l2]) * _phi([l3]),
                (1, 3): (l1 * l3) ** N * _phi([l1, l3]) * _phi([l2]),
                (2, 3): -((l2 * l3) ** N) * _phi([l2, l3]) * _phi([l1]),
                (1, 2, 3): (l1 * l2 * l3) ** N * _phi([l1, l2, l3]),
            }
            terms = analytic_volume_terms([l1, l2, l3], N)
        for t in terms:
            ref = expected[t.subset]
            worst = max(worst, abs(t.value - ref) / abs(ref))
    assert _verdict("03 closed-form anchors", worst < 1e-12,
                    f"worst termwise rel dev {worst:.3e}")


def test_04_infinite_time_tail_with_pointwise_fitted_constant():
    """C_4*0.8^N < |V_N - 5| <= C_sum*0.8^N at N = 10/20/40: rate exactly 0.8^N.

    For lambda = (0.5, 0.8) the tail is V_N - 5 = 10*0.5^N - 10*0.8^N -
    5*0.4^N, so the normalized ratio r(N) = |V_N - 5| / 0.8^N equals
    10 - 10*0.625^N + 5*0.5^N.  r is strictly increasing, since
    r(N+1) - r(N) = 3.75*0.625^N - 2.5*0.5^N > 0, so the constant fitted
    at N = 4, C_4 = r(4) (about 8.787), is a strict lower envelope at every
    later N: the tail decays no faster than 0.8^N.  The upper bound uses
    the term-magnitude constant C_sum = sum over non-empty subsets of
    |dist_in*dist_out| (10 + 10 + 5 = 25), which bounds the tail at every N
    because each non-empty power factor is at most 0.8^N.  The measured
    r(N) must also match its closed form to 1e-9 relative (worst seen
    3e-13), which pins both the limit and the rate.
    """
    lam = [0.5, 0.8]
    v_inf = infinite_volume_sum(lam)
    assert v_inf == pytest.approx(5.0, rel=1e-12)
    C_4 = abs(analytic_volume_sum(lam, 4) - v_inf) / 0.8 ** 4
    C_sum = sum(abs(t.dist_in * t.dist_out) for t in analytic_volume_terms(lam, 4) if t.subset)
    assert C_sum == pytest.approx(25.0, rel=1e-12)
    worst = 0.0
    ok = True
    for N in (10, 20, 40):
        ratio = abs(analytic_volume_sum(lam, N) - v_inf) / 0.8 ** N
        exact = 10.0 - 10.0 * 0.625 ** N + 5.0 * 0.5 ** N
        worst = max(worst, ratio)
        ok = ok and C_4 < ratio <= C_sum and ratio == pytest.approx(exact, rel=1e-9)
    assert _verdict("04 infinite-time tail (C_4 < |V_N - V_inf|/0.8^N <= C_sum)", ok,
                    f"C_4={C_4:.6g}, C_sum={C_sum:.6g}, worst ratio {worst:.6g}")


def test_05_identity_suite():
    """Positivity on 500 draws; identity residuals below 1e-11 on 200 each."""
    rng = np.random.default_rng(3)
    ok_pos = True
    for _ in range(500):
        n = int(rng.integers(1, 6))
        lam = random_spectrum(rng, n, 0.05, 0.95, 0.02)
        exps = np.sort(rng.choice(np.arange(0, 4 * n + 2), n, replace=False))
        ok_pos = ok_pos and quasi_vandermonde(lam, exps) > 0.0
    worst_del = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        lam = random_spectrum(rng, n, 0.05, 0.95, 0.02)
        worst_del = max(worst_del, abs(deletion_identity_residual(lam)))
    worst_sub = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        lam = random_spectrum(rng, n, 0.05, 0.95, 0.02)
        i = int(rng.integers(1, n))
        j = int(rng.integers(i + 1, n + 1))
        worst_sub = max(worst_sub, *map(abs, substitution_identity_residuals(lam, i, j)))
    ok = ok_pos and worst_del < 1e-11 and worst_sub < 1e-11
    assert _verdict("05 identity suite", ok,
                    f"deletion {worst_del:.2e}, substitution {worst_sub:.2e}")


def test_06_narrow_broad_duality():
    """Inverse-system volume relations via the exact oracle, both ways;
    narrow closed form against the definition generators for lambda > 1."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        A = random_invertible(rng, n)
        B = rng.uniform(-1.0, 1.0, (n, int(rng.integers(1, 3))))
        N = int(rng.integers(1, 9))
        model = StateSpaceModel(A, B)
        inv_model = StateSpaceModel(np.linalg.inv(A), B)
        det = abs(np.linalg.det(A))
        lhs_c = symmetric_volume(narrow_generators(model, N))
        rhs_c = symmetric_volume(reachability_generators(inv_model, N)) / det
        lhs_d = symmetric_volume(reachability_generators(model, N))
        rhs_d = symmetric_volume(narrow_generators(inv_model, N)) / det
        scale = max(lhs_c, rhs_c, lhs_d, rhs_d)
        if scale == 0.0:  # rank-deficient horizon: both sides flat
            continue
        worst = max(worst, abs(lhs_c - rhs_c) / scale, abs(lhs_d - rhs_d) / scale)
    worst_narrow = 0.0
    ran_narrow = 0
    for _ in range(25):
        n = int(rng.integers(1, 4))
        lam = random_spectrum(rng, n, 1.05, 2.8, 0.1)
        prods = np.outer(lam, lam)[np.triu_indices(n, 1)]
        if prods.size and np.min(np.abs(1.0 - prods)) < 1e-3:
            continue
        model = random_single_input(rng, lam)
        N = int(rng.integers(n, 10))
        vol = narrow_volume_analytic(diagonalize(model), N).volume
        oracle = symmetric_volume(narrow_generators(model, N))
        worst_narrow = max(worst_narrow, abs(vol - oracle) / oracle)
        ran_narrow += 1
    ok = worst < 1e-9 and worst_narrow < 1e-9 and ran_narrow >= 15
    assert _verdict("06 narrow/broad duality", ok,
                    f"relations {worst:.2e}, narrow-vs-oracle {worst_narrow:.2e}")


def test_07_negative_spectra():
    """Closed form matches the exact generator oracle for all-negative
    spectra (50 draws, n <= 4, N <= 12, 1e-9 relative)."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        lam = random_negative_spectrum(rng, n)
        model = random_single_input(rng, lam)
        N = int(rng.integers(n, 13))
        vol = full_volume(model, N, "analytic").volume
        oracle = symmetric_volume(reachability_generators(model, N))
        worst = max(worst, abs(vol - oracle) / oracle)
    assert _verdict("07 negative spectra", worst < 1e-9, f"worst {worst:.2e}")


def test_08_continuous_time_convergence():
    """20 stable systems: discretization error halves with the step across
    three halvings and ends below 1e-3 relative at dt = 2.5e-3."""
    rng = np.random.default_rng(6)
    steps = (2e-2, 1e-2, 5e-3, 2.5e-3)
    worst_final = 0.0
    ratios_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 4))
        if n == 1:
            lam = -rng.uniform(0.04, 0.4, 1)
            T = 0.04 * int(rng.integers(20, 38))
        elif n == 2:
            while True:
                lam = np.sort(-rng.uniform(0.04, 0.35, 2))
                if np.diff(lam)[0] > 0.12:
                    break
            T = 0.04 * int(rng.integers(25, 38))
        else:
            while True:
                lam = np.sort(-rng.uniform(0.04, 0.3, 3))
                if np.min(np.diff(lam)) > 0.09:
                    break
            T = 0.04 * int(rng.integers(25, 31))
        gains = rng.uniform(0.5, 1.5, n)
        cmodel = ContinuousModel.from_spectrum(lam, gains, T)
        exact = ct_volume_analytic(cmodel).volume
        errs = [abs(ct_discretized_oracle(cmodel, dt) - exact) for dt in steps]
        for a, b in zip(errs, errs[1:]):
            # one halving of dt about halves the error
            ratios_ok = ratios_ok and b < a and 0.3 <= b / a <= 0.72
        worst_final = max(worst_final, errs[-1] / exact)
    ok = ratios_ok and worst_final < 1e-3
    assert _verdict("08 continuous-time convergence", ok,
                    f"linear decay {ratios_ok}, worst final rel {worst_final:.2e}")


def test_09_complexity_separation():
    """Analytic cost flat in N, recursive cost linear, direct counts exact."""
    lam = [0.5, 0.8]
    t_small = min(timeit.repeat(lambda: analytic_volume_sum(lam, 10),
                                number=400, repeat=7))
    t_large = min(timeit.repeat(lambda: analytic_volume_sum(lam, 10 ** 6),
                                number=400, repeat=7))
    flat = t_large < 2.0 * t_small

    lam3 = [0.2, 0.5, 0.8]
    t_rec = []
    for N in (1000, 2000, 4000):
        t_rec.append(min(timeit.repeat(
            lambda: recursive_volume_sum(lam3, N), number=3, repeat=7)))
    linear = all(b / a < 3.0 for a, b in zip(t_rec, t_rec[1:]))

    counts_ok = all(
        determinant_count(N, 3) == math.factorial(N)
        // (math.factorial(N - 3) * math.factorial(3))
        for N in (8, 16, 32, 64)) and \
        [determinant_count(N, 3) for N in (8, 16, 32)] == [56, 560, 4960]

    ok = flat and linear and counts_ok
    assert _verdict(
        "09 complexity separation", ok,
        f"analytic 1e6/10 ratio {t_large / t_small:.2f}, "
        f"recursive doubling ratios "
        f"{[round(b / a, 2) for a, b in zip(t_rec, t_rec[1:])]}, counts {counts_ok}")


def test_10_transform_scaling_and_prefactor_invariance():
    """Coordinate-change determinant rule via the oracle; prefactor
    unchanged under eigenvector row rescaling."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        A = random_invertible(rng, n)
        B = rng.uniform(-1.0, 1.0, (n, int(rng.integers(1, 3))))
        W = random_invertible(rng, n)
        N = int(rng.integers(1, 9))
        P = reachability_generators(StateSpaceModel(A, B), N)
        lhs = symmetric_volume(W @ P)
        rhs = abs(np.linalg.det(W)) * symmetric_volume(P)
        if rhs > 0:
            worst = max(worst, abs(lhs - rhs) / rhs)
    worst_pref = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        model = random_single_input(rng, random_spectrum(rng, n))
        eig = diagonalize(model)
        base = full_volume(eig, n + 3, "analytic").volume
        scale = rng.uniform(0.05, 20.0, n) * rng.choice([-1.0, 1.0], n)
        scaled = EigenStructure(eig.eigenvalues, eig.left_vectors * scale[:, None],
                                eig.modal_gains * scale)
        rescaled = full_volume(scaled, n + 3, "analytic").volume
        worst_pref = max(worst_pref, abs(rescaled - base) / base)
    ok = worst < 1e-9 and worst_pref < 1e-12
    assert _verdict("10 transform scaling", ok,
                    f"oracle {worst:.2e}, prefactor {worst_pref:.2e}")
