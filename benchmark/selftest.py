"""Self-tests of the benchmark itself (not of reachvol).

    python3 benchmark/selftest.py

Checks that a seed fixes the requests byte for byte and that a plan never
repeats a request, that a wrong volume is counted as a failure, that the
tracer puts every function back, and that the reference engines agree with
each other and with determinant sums enumerated one minor at a time.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from mpmath import mp, mpf  # noqa: E402

import client  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_same_requests():
    for w in workloads.WORKLOADS:
        a = workloads.dumps(workloads.generate(w, 7, 1))
        assert a == workloads.dumps(workloads.generate(w, 7, 1)), w
        assert a != workloads.dumps(workloads.generate(w, 8, 1)), w


def test_plan_never_repeats_a_request():
    for w in workloads.WORKLOADS:
        plan = workloads.generate(w, 3, 60)
        reqs = plan["warmup"] + [req for block in plan["blocks"] for req in block]
        assert len({req["model"] for req in reqs}) == len(reqs), w
        spectra = [json.dumps(plan["models"][req["model"]]) for req in reqs]
        assert len(set(spectra)) == len(reqs), w


def _send_all(reqs, plan):
    cli = client.import_cli()
    with tempfile.TemporaryDirectory() as tmp:
        models = Path(tmp)
        for name, model in plan["models"].items():
            (models / name).write_text(json.dumps(model))
        return [client.send(cli, req, models) for req in reqs]


def test_wrong_volume_counts_as_failure():
    import run
    plan = workloads.generate("recursion", 1, 1)
    reqs = [req for req in plan["blocks"][0] if req["regime"] != "close"][:4]
    refs = {req["id"]: reference.expected(req, plan) for req in reqs}
    refs[reqs[2]["id"]]["values"][0] *= 1 + 1e-6        # inject a wrong volume
    records = [run.check(rec, req, refs[req["id"]])
               for rec, req in zip(_send_all(reqs, plan), reqs)]
    summary = run.summarize(records, {req["id"]: req for req in reqs})
    assert summary["failed"] == 1 and summary["fail_ratio"] == 0.25, summary
    assert not records[2]["ok"] and all(r["ok"] for i, r in enumerate(records) if i != 2)


def test_tracer_restores_functions():
    from tracer import Tracer
    client.import_cli()
    mods = {k: m for k, m in sys.modules.items() if k.startswith("reachvol")}
    before = {k: dict(vars(m)) for k, m in mods.items()}
    plan = workloads.generate("sweep", 2, 1)
    req = next(r for r in plan["blocks"][0] if r["kind"] == "sweep" and r["mode"] == "discrete")
    ref = reference.expected(req, plan)
    with Tracer() as tr:
        import reachvol.analytic
        import reachvol.cli
        assert reachvol.cli.full_volume is reachvol.analytic.full_volume
        assert reachvol.analytic.full_volume is not before["reachvol.analytic"]["full_volume"]
        tr.request = 0
        [rec] = _send_all([req], plan)
    import run
    assert run.check(rec, req, ref)["ok"], rec
    assert not tr.missing
    rows = req["N"] - req["n"] + 1
    assert sum(s[0] == "model.diagonalize" for s in tr.spans) == rows + 1
    assert tr.leaf_calls["analytic.sign_coefficient"] == 2 * rows * 2 ** req["n"]
    for k, m in mods.items():
        after = vars(m)
        changed = [a for a, v in before[k].items() if after.get(a) is not v]
        assert not changed, (k, changed)


def _power_matrix_volume(lam, N):
    """Exact sum of |det| of all n-column minors of [lambda_i^k], in mpmath."""
    from itertools import combinations
    n = len(lam)
    with mp.workdps(60):
        M = [[mpf(x) ** k for k in range(N)] for x in lam]
        return sum(abs(mp.det(mp.matrix([[row[c] for c in cols] for row in M])))
                   for cols in combinations(range(N), n))


def test_reference_engines_agree():
    lam = [0.2, 0.5, 0.9]
    exact = _power_matrix_volume(lam, 7)
    assert abs(reference.discrete_sum(lam, 7)[0] / exact - 1) < 1e-30
    assert abs(reference.recursion_sums(lam, 7)[7] / exact - 1) < 1e-30
    # an integrator: the nudged expansion matches the division-free recursion
    sing = [0.3, 0.6, 1.0]
    assert abs(reference.discrete_sum(sing, 9)[0] / reference.recursion_sums(sing, 9)[9] - 1) \
        < 1e-30


def test_det_sum_matches_minor_enumeration():
    from itertools import combinations
    rng = np.random.default_rng(4)
    for n, m in ((2, 9), (3, 9), (4, 8), (3, 4)):
        G = rng.standard_normal((n, m))
        G[:, 1] = 2.5 * G[:, 0]                          # a parallel pair: zero minors
        minors = [abs(np.linalg.det(G[:, list(c)])) for c in combinations(range(m), n)]
        assert abs(reference.det_sum(G) / sum(minors) - 1) < 1e-12, (n, m)


def test_reference_volumes_match_determinant_sums():
    spec = {"lam": [0.25, 0.55, 0.8], "V": [[1.0, 0.3, 0.0], [0.2, 1.0, 0.4], [0.0, 0.1, 1.0]],
            "B": [[0.5], [-1.0], [0.7]]}
    V = np.asarray(spec["V"])
    for sign, mode in ((1, "discrete"), (-1, "negative"), (1, "narrow")):
        s = dict(spec, lam=[sign * x for x in spec["lam"]])
        A = V @ np.diag(s["lam"]) @ np.linalg.inv(V)
        model = {"A": A.tolist(), "B": spec["B"]}
        if mode == "narrow":
            Ainv = np.linalg.inv(A)
            G = np.hstack([np.linalg.matrix_power(Ainv, k) @ np.asarray(spec["B"])
                           for k in range(1, 9)])
        else:
            G = reference.generator_matrix(model, 8)
        direct = 8.0 * reference.det_sum(G)
        assert abs(reference._volume_for(s, mode, N=8)[0] / direct - 1) < 1e-10, mode
        rows = reference._sweep_volumes(s, mode, 8)
        assert abs(rows[-1] / direct - 1) < 1e-10, mode
    # continuous time: the Riemann cover converges at first order in dt
    ct = dict(spec, lam=[-0.5, -1.2, -2.0])
    exact = reference._volume_for(ct, "continuous", T=1.0)[0]
    cover = 8.0 * reference.det_sum(reference.riemann_generators(ct, 1.0, 0.005))
    assert abs(cover / exact - 1) < 0.02


def main():
    tests = [(k, f) for k, f in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL  {name}: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
