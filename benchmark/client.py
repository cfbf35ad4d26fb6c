"""Closed-loop client: one process, one request in flight at a time.

Each request is one in-process ``reachvol.cli.main(argv)`` call with
stdout captured in memory; after the request's clock stops the output is
parsed into the numbers it reports, which run.py checks against the
references.  Run by ``run.py`` as the workload's own process, so that its
peak resident memory is the workload's.  Requests go out in plan order and
none is sent twice; a run that reaches the end of the plan stops there.

    python3 benchmark/client.py PLAN MODELS_DIR SECONDS OUT [--trace]
"""

import io
import json
import math
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibrate
from tracer import Tracer, layer_metrics, request_counts
from workloads import MIN_REQUESTS

ROOT = Path(__file__).resolve().parent.parent
MAX_SECONDS = 120.0     # hard stop, whatever MIN_REQUESTS says


def import_cli():
    """Import reachvol.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from reachvol import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"reachvol imported from {cli.__file__}, not from {src}")
    return cli


def call(cli, argv):
    """One request: (latency_ms, exit code, stdout, exception text)."""
    out = io.StringIO()
    exc = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # a crashing request is a failed request, not a failed run
        rc, exc = None, repr(e)
    return (time.perf_counter() - t0) * 1e3, rc, out.getvalue(), exc


def parse(req, rc, text, exc):
    """The numbers a response reports, in the order of its reference.
    Returns {values, route, cond, why}; values is None for a failed call."""
    res = {"values": None, "route": None, "cond": None, "why": None}
    if exc is not None or rc != 0:
        res["why"] = exc or f"exit code {rc}"
        return res
    try:
        if req["kind"] == "sweep":
            lines = text.strip().splitlines()
            col = lines[0].split(",").index("volume")
            res["values"] = [float(line.split(",")[col]) for line in lines[1:]]
        elif req["kind"] == "factors":
            doc = json.loads(text)
            res["values"] = [float(doc["F1"])] + [float(x) for x in doc["F2"] + doc["F3"]]
        else:
            doc = json.loads(text)
            res["route"] = doc["route"]
            res["values"] = [float(doc["volume"])]
            terms = doc.get("terms")
            if terms and doc.get("normalized_sum"):
                res["cond"] = (math.fsum(abs(t["value"]) for t in terms)
                               / abs(doc["normalized_sum"]))
    except (ValueError, KeyError, IndexError, TypeError) as e:
        res["values"] = None
        res["why"] = f"unparseable output: {e!r}"
    return res


def send(cli, req, models):
    """Time the calibration kernel and one request, then parse the response.
    Returns the request's record."""
    kernel = calibrate.kernel_ms()
    ms, rc, text, exc = call(cli, [req["kind"], "--model", str(models / req["model"])]
                             + req["argv"])
    rec = parse(req, rc, text, exc)
    rec.update(id=req["id"], ms=ms, kernel_ms=kernel)
    return rec


def normalize(records, elasticity):
    """Add each record's latency at the calibration reference speed."""
    scaled = calibrate.normalize([r["ms"] for r in records], [r["kernel_ms"] for r in records],
                                 elasticity)
    for rec, ms in zip(records, scaled):
        rec["norm_ms"] = ms
    return records


def closed_loop(cli, blocks, models, seconds, min_requests):
    """Send whole blocks in order until the next block would overrun
    `seconds` (or, while fewer than `min_requests` were sent, MAX_SECONDS),
    or the blocks run out.  Returns (records, number of blocks sent)."""
    records = []
    t_start = time.perf_counter()
    for k, block in enumerate(blocks, start=1):
        records += [send(cli, req, models) for req in block]
        elapsed = time.perf_counter() - t_start
        budget = seconds if len(records) >= min_requests else MAX_SECONDS
        if elapsed + elapsed / k > budget:
            break
    return records, k


def main(argv):
    plan_path, models, seconds, out_path = argv[:4]
    trace = "--trace" in argv[4:]
    models, seconds = Path(models), float(seconds)
    plan = json.loads(Path(plan_path).read_text())
    blocks = plan["blocks"]
    elasticity = calibrate.ELASTICITY[plan["workload"]]
    cli = import_cli()
    for req in plan["warmup"]:
        calibrate.kernel_ms()
        call(cli, [req["kind"], "--model", str(models / req["model"])] + req["argv"])

    result = {}
    if not trace:
        records, k = closed_loop(cli, blocks, models, seconds, MIN_REQUESTS)
        normalize(records, elasticity)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # untraced, then as many fresh blocks again traced
        plain, k = closed_loop(cli, blocks, models, seconds / 2, 1)
        traced_blocks = blocks[k:2 * k]
        reqs = [req for block in traced_blocks for req in block]
        tracer = Tracer()
        records = []
        with tracer:
            for i, req in enumerate(reqs):
                tracer.request = i
                records.append(send(cli, req, models))
        normalize(plain, elasticity)
        normalize(records, elasticity)
        volumes = sum(1 if q["kind"] == "volume" else
                      q["N"] - q["n"] + 1 if q["kind"] == "sweep" else 0 for q in reqs)
        metrics = layer_metrics(tracer, len(records), volumes)
        # per request: the traced blocks have the untraced ones' class mix
        metrics["trace.overhead_ratio"] = (
            (sum(r["norm_ms"] for r in records) / len(records))
            / (sum(r["norm_ms"] for r in plain) / len(plain)), "ratio")
        result["layers"] = metrics
        result["missing"] = tracer.missing
        result["per_request_calls"] = {records[i]["id"]: dict(c) for i, c
                                       in request_counts(tracer).items()}
        Path(out_path).with_suffix(".spans.json").write_text(json.dumps(tracer.spans))
        k += len(traced_blocks)
        records = plain + records
    result["records"] = records
    result["pool_exhausted"] = k == len(blocks)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
