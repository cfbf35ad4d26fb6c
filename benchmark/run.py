"""reachvol benchmark: closed-loop CLI requests, checked against references.

    python3 benchmark/run.py --workload expansion --seed 1 --seconds 22 --trace 0

Workloads (see workloads.py for how each is built and why):

  expansion  single volume requests on the subset expansion, n 7-10, half
             near the N = n anchor; nothing is shared between requests
  sweep      horizon sweeps and factor reports, n 4-7: the one workload
             where work could be shared across calls
  recursion  near-singular spectra that the auto route sends to the
             O(2^n N) recursion, N 64-512
  oracle     complex / multi-input / continuous-time-direct systems that
             only the exact determinant sum can answer

Set-up (untimed): generate the seeded plan, sized so that the run never
sends a request twice (workloads.py), and write the model files.  Then
``setup_s`` is measured over several fresh interpreters, each importing
reachvol and answering one tiny volume request, and the closed loop runs
in a child process (client.py) with BLAS pinned to one thread.  After it,
every response is checked against a reference computed outside any timed
span (reference.py) and cached by request content under benchmark/_work/.

A request fails on a non-zero exit, an exception, unparseable output or a
number more than 1e-9 relative from its reference.  Requests that ask for
more than the program's working precision can give form the precision-edge
class: recursion spectra in the "close" class, and subset expansions whose
terms cancel by more than 10**(digits - 11), with digits = 40 in discrete
time and 16 in continuous time (reachvol's working precision), i.e. with
less than two digits of margin to the tolerance.  They are sent and timed
like every other request, and their failures are reported in the detail
line (``edge``), not in ``failed``.

All times are reported at a fixed reference machine speed (calibrate.py).
A speed claim must also hold, in the same direction, in the raw wall
times of the detail line (``raw_wall``).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a separate traced pass
(tracer.py).  The line before it is a JSON detail record: request mix,
route mix, failures and the environment.
"""

import os

THREADS = "1"  # nproc is small; keep BLAS from competing with the client
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import hashlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SRC = ROOT / "src"
SETUP_REPEATS = 5
CHILD_TIMEOUT = 150
REL_TOL = 1e-9          # the README's three-route equivalence tolerance
WORKING_DIGITS = {"continuous": 16, "discrete": 40, "negative": 40, "narrow": 40}
EDGE_MARGIN = 11        # cancellation past 10**(digits - EDGE_MARGIN) is precision-edge
EDGE_REGIMES = ("close",)

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import workloads  # noqa: E402
from reference import expected  # noqa: E402

TINY = {"lam": [0.3, 0.7], "V": [[1.0, 0.5], [0.0, 1.0]], "B": [[0.4], [1.0]]}


def _content_key(req, plan):
    """Hash of everything a request's answer depends on."""
    body = {k: v for k, v in req.items() if k != "id"}
    body["model"] = [plan["models"][req["model"]], plan["specs"][req["model"]]]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:32]


def references(plan, ids):
    """Reference of each request in `ids`, cached by request content."""
    path = WORK / "cache" / f"{plan['workload']}-{plan['seed']}.json"
    cache = json.loads(path.read_text()) if path.exists() else {}
    by_id = {req["id"]: req for block in plan["blocks"] for req in block}
    refs, fresh = {}, 0
    for rid in ids:
        key = _content_key(by_id[rid], plan)
        if key not in cache:
            cache[key] = expected(by_id[rid], plan)
            fresh += 1
        refs[rid] = cache[key]
    if fresh:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(cache))
        tmp.replace(path)
    return refs


def check(rec, req, ref):
    """Judge one parsed response against its reference, in place."""
    rec["edge"] = req["regime"] in EDGE_REGIMES or (
        ref["cond"] is not None
        and ref["cond"] > 10.0 ** (WORKING_DIGITS[req["mode"]] - EDGE_MARGIN))
    rec["err"], rec["ok"] = math.inf, False
    vals, want = rec["values"], ref["values"]
    if vals is None:
        return rec
    if len(vals) != len(want):
        rec["why"] = f"{len(vals)} numbers, expected {len(want)}"
        return rec
    rec["err"] = max((abs(v - w) / abs(w) if w else abs(v)) if math.isfinite(v) else math.inf
                     for v, w in zip(vals, want))
    rec["ok"] = rec["err"] <= REL_TOL
    if not rec["ok"]:
        rec["why"] = f"relative error {rec['err']:.3g} > {REL_TOL}"
    return rec


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(run_dir):
    """Fresh interpreter to first answer: `python3 -m reachvol volume` on a
    2-state model, timed between calibration kernels.  Returns the median
    at the reference speed and the raw samples, in seconds."""
    import numpy as np
    V = np.asarray(TINY["V"])
    A = V @ np.diag(TINY["lam"]) @ np.linalg.inv(V)
    path = run_dir / "tiny.json"
    path.write_text(json.dumps({"A": A.tolist(), "B": TINY["B"]}))
    [ref] = expected({"model": "tiny", "kind": "volume", "mode": "discrete", "route": "analytic",
                      "N": 4}, {"models": {"tiny": None}, "specs": {"tiny": TINY}})["values"]
    samples, kernels = [], []
    for _ in range(SETUP_REPEATS):
        kernels.append(calibrate.kernel_ms())
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "reachvol", "volume", "--model", str(path),
                               "--N", "4"], cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up request failed: {proc.stderr.strip()}")
        vol = json.loads(proc.stdout)["volume"]
        if abs(vol - ref) > 1e-9 * ref:
            raise RuntimeError(f"set-up request answered {vol}, expected {ref}")
    return (statistics.median(calibrate.normalize(samples, kernels, calibrate.SETUP_ELASTICITY)),
            samples)


def environment():
    import mpmath
    import numpy as np
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "mpmath": mpmath.__version__, "openblas": blas,
            "blas_threads": int(THREADS), "src_lines": src_lines}


def shares(values):
    c = Counter(values)
    return {str(k): round(v / len(values), 4) for k, v in sorted(c.items(), key=str)}


def _failures(records):
    failed = [r for r in records if not r["ok"]]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(records) if records else 0.0,
        "max_rel_err": max((r["err"] for r in records if math.isfinite(r["err"])), default=0.0),
        "failures": [f"{r['id']}: {r['why']}" for r in failed[:5]],
    }


def summarize(records, by_id):
    """Failure accounting (precision-edge class apart) and the measured
    request mix of a run."""
    reqs = [by_id[r["id"]] for r in records]
    conds = sorted(r["cond"] for r in records if r["cond"] is not None)
    routes = [r["route"] for r in records if r["route"] is not None]
    expected_routes = [q["route"] for q, r in zip(reqs, records) if r["route"] is not None]
    out = _failures([r for r in records if not r["edge"]])
    out["attempted"] = len(records)
    out["edge"] = _failures([r for r in records if r["edge"]])
    out["all_fail_ratio"] = (out["failed"] + out["edge"]["failed"]) / len(records)
    out["mix"] = {
        "kind": shares([q["kind"] for q in reqs]),
        "mode": shares([q["mode"] for q in reqs]),
        "regime": shares([q["regime"] for q in reqs]),
        "n": shares([q["n"] for q in reqs]),
        "edge": shares([r["edge"] for r in records]),
        "route": shares(routes),
        "route_as_expected": (sum(a == b for a, b in zip(routes, expected_routes))
                              / len(routes)) if routes else None,
    }
    out["cond_p50"] = statistics.median(conds) if conds else None
    out["cond_max"] = conds[-1] if conds else None
    return out


def calls_by_class(per_request, by_id):
    """Mean entry-point calls per traced request, by request kind and mode,
    next to the horizons a sweep of that class covers."""
    groups = {}
    for rid, calls in per_request.items():
        q = by_id[rid]
        g = groups.setdefault(f"{q['kind']}/{q['mode']}", {"requests": 0, "calls": Counter()})
        g["requests"] += 1
        g["calls"].update(calls)
        if q["kind"] == "sweep":
            g["calls"]["rows"] += q["N"] - q["n"] + 1
    return {k: {name: round(c / g["requests"], 3) for name, c in sorted(g["calls"].items())}
            for k, g in sorted(groups.items())}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "reachvol" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no reachvol source under {SRC}\n")
        return 2

    plan = workloads.generate(args.workload, args.seed,
                              workloads.pool_requests(args.workload, args.seconds))
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    models = run_dir / "models"
    try:
        models.mkdir(parents=True)
        for name, model in plan["models"].items():
            (models / name).write_text(json.dumps(model))
        (run_dir / "plan.json").write_text(json.dumps(  # what the client sends, no more
            {k: plan[k] for k in ("workload", "warmup", "blocks")}))
        setup_s, setup_samples = measure_setup(run_dir)
        out = run_dir / "result.json"
        cmd = [sys.executable, str(HERE / "client.py"), str(run_dir / "plan.json"), str(models),
               str(args.seconds), str(out)] + (["--trace"] if args.trace else [])
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(f"benchmark: client failed ({proc.returncode}):\n{proc.stderr}")
            return 1
        result = json.loads(out.read_text())
        spans = None
        if args.trace:  # keep the spans of the traced pass
            spans = WORK / "traces" / f"{args.workload}-{args.seed}.spans.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            out.with_suffix(".spans.json").replace(spans)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = result["records"]
    if len({r["id"] for r in records}) != len(records):
        sys.stderr.write("benchmark: the client sent a request twice\n")
        return 1
    by_id = {r["id"]: r for block in plan["blocks"] for r in block}
    refs = references(plan, [r["id"] for r in records])
    for rec in records:
        check(rec, by_id[rec["id"]], refs[rec["id"]])
    summary = summarize(records, by_id)
    detail = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  planned=sum(map(len, plan["blocks"])), pool_exhausted=result["pool_exhausted"],
                  setup_samples_s=setup_samples, environment=environment(), **summary)
    if args.trace:
        layers = dict(result["layers"])
        layers["analytic.cond_p50"] = (summary["cond_p50"] or 0.0, "ratio")
        layers["analytic.cond_max"] = (summary["cond_max"] or 0.0, "ratio")
        layers["max_rel_err"] = (summary["max_rel_err"], "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
        detail["missing_entry_points"] = result["missing"]
        detail["calls_by_class"] = calls_by_class(result["per_request_calls"], by_id)
        detail["spans_file"] = str(spans.relative_to(ROOT)) if spans else None
    else:
        lat = [r["norm_ms"] for r in records]
        q = statistics.quantiles(lat, n=10)
        ok = sum(r["ok"] for r in records)
        raw = [r["ms"] for r in records]
        detail["raw_wall"] = {"p50_ms": statistics.median(raw), "total_s": sum(raw) / 1e3,
                              "kernel_ms_p50": statistics.median(r["kernel_ms"] for r in records)}
        metrics = {
            "requests_per_s": {"value": ok / (sum(lat) / 1e3), "unit": "1/s"},
            "latency_p50_ms": {"value": q[4], "unit": "ms"},
            "latency_p90_ms": {"value": q[8], "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        detail["samples"] = len(lat)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
