"""Paired benchmark runs of a parent tree and a child tree, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py PARENT_DIR --label NAME [--child CHILD_DIR]
        --run oracle:1-10 [--held-out oracle:11] [--run expansion:1-3 ...]
        [--seconds 18] [--out DIR]

Each seed of a ``--run`` or ``--held-out`` spec (``WORKLOAD:SEEDS``, where
SEEDS is ``A-B`` or ``A,B,...``) is one pair: both trees run their own

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0

one after the other, from their own directory, and the side that runs first
alternates from pair to pair.  Held-out seeds are run and reported like the
others and flagged, so that a claim can be checked on seeds no one tuned on.
CHILD_DIR defaults to the checkout this script is in.

Each tree also runs ``--trace 1`` once per workload, on the workload's first
seed.  Its exit code, ``planned``, ``attempted``, ``pool_exhausted`` and
per-layer metrics are recorded, not judged, so that a traced run that fails
(for instance when a faster tree uses up the request pool) shows in the file.
So is its headroom: ``traced_sent``, the distinct request indices in the spans
file the run leaves at ``benchmark/_work/traces/W-S.spans.json``, and
``untraced_sent``, the rest of ``attempted``.  The client traces as many blocks
as the untraced half sent, so an untraced half that sends the whole planned
pool leaves nothing to trace and the run fails.

The file records the machine and the Python, numpy and mpmath versions (as
the benchmark reports them), the seeds and run counts, every run's end-to-end
metrics and ``raw_wall``, their median and quartiles per side, how many pairs
the child wins on each metric (in the direction BENCHMARK.json gives), and for
each tree the tier-1 wall time and ``wc -l src/reachvol/*.py``.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
RAW_WALL = ("p50_ms", "total_s", "kernel_ms_p50")


def _seeds(spec):
    workload, _, seeds = spec.partition(":")
    if "-" in seeds:
        lo, hi = seeds.split("-")
        return workload, list(range(int(lo), int(hi) + 1))
    return workload, [int(s) for s in seeds.split(",")]


def _cmd(workload, seed, seconds, trace):
    return [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def _bench(tree, workload, seed, seconds):
    cmd = _cmd(workload, seed, seconds, 0)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    detail = detail["detail"]
    run = {name: m["value"] for name, m in result["metrics"].items()}
    run.update({f"raw_wall.{k}": detail["raw_wall"][k] for k in RAW_WALL})
    run.update(attempted=result["attempted"], failed=result["failed"],
               pool_exhausted=detail["pool_exhausted"])
    return run, detail["environment"]


def _traced(tree, workload, seed, seconds):
    """Outcome of one --trace 1 run, whether or not it exits 0."""
    proc = subprocess.run(_cmd(workload, seed, seconds, 1), cwd=tree, capture_output=True,
                          text=True)
    run = {"seed": seed, "exit": proc.returncode, "planned": None, "attempted": None,
           "pool_exhausted": None}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        run["stderr_tail"] = proc.stderr.strip().splitlines()[-1:]
        return run
    detail, result = (json.loads(line) for line in lines[-2:])
    detail = detail["detail"]
    run.update(planned=detail["planned"], attempted=result["attempted"],
               pool_exhausted=detail["pool_exhausted"],
               layers={name: m["value"] for name, m in result["metrics"].items()})
    spans = Path(tree) / "benchmark" / "_work" / "traces" / f"{workload}-{seed}.spans.json"
    traced = len({span[4] for span in json.loads(spans.read_text())} - {None})
    run.update(traced_sent=traced, untraced_sent=result["attempted"] - traced)
    return run


def _quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _tree_facts(tree):
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                            text=True).stdout.strip() or None
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((Path(tree) / "src" / "reachvol").glob("*.py")))
    return {"commit": commit, "src_lines": lines,
            "tier1": {"wall_s": wall, "exit": proc.returncode,
                      "summary": re.sub(r" in [\d.]+s.*", "", last.strip("= "))}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("--child", type=Path, default=ROOT)
    p.add_argument("--label", required=True)
    p.add_argument("--run", action="append", default=[], metavar="WORKLOAD:SEEDS")
    p.add_argument("--held-out", action="append", default=[], metavar="WORKLOAD:SEEDS")
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--out", type=Path, default=ROOT)
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "child": args.child.resolve()}
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    plan = [(spec, False) for spec in args.run] + [(spec, True) for spec in args.held_out]
    workloads, environment, k = {}, None, 0
    for spec, held_out in plan:
        workload, seeds = _seeds(spec)
        entry = workloads.setdefault(workload, {"seeds": [], "held_out_seeds": [], "pairs": []})
        for seed in seeds:
            entry["held_out_seeds" if held_out else "seeds"].append(seed)
            order = ("parent", "child") if k % 2 == 0 else ("child", "parent")
            k += 1
            pair = {"seed": seed, "held_out": held_out, "first": order[0]}
            for side in order:
                pair[side], environment = _bench(trees[side], workload, seed, args.seconds)
            entry["pairs"].append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['requests_per_s']:.1f} req/s" for side in order),
                file=sys.stderr, flush=True)

    for workload, entry in workloads.items():
        seed = (entry["seeds"] or entry["held_out_seeds"])[0]
        entry["traced"] = {side: _traced(trees[side], workload, seed, args.seconds)
                           for side in trees}
        print(f"{workload} seed {seed} traced: " + ", ".join(
            f"{side} exit {run['exit']}, {run['attempted']} of {run['planned']} "
            f"(untraced {run.get('untraced_sent')}, traced {run.get('traced_sent')})"
            for side, run in entry["traced"].items()), file=sys.stderr, flush=True)

    for entry in workloads.values():
        pairs = entry["pairs"]
        entry["runs_per_side"] = len(pairs)
        metrics = [m for m in pairs[0]["parent"]
                   if m not in ("attempted", "failed", "pool_exhausted")]
        for side in trees:
            entry[side] = {m: _quartiles([pr[side][m] for pr in pairs]) for m in metrics}
            entry[side]["failed"] = sum(pr[side]["failed"] for pr in pairs)
            entry[side]["pool_exhausted_runs"] = sum(pr[side]["pool_exhausted"] for pr in pairs)
        entry["child_wins"] = {
            m: sum((pr["child"][m] > pr["parent"][m]) if better[m] == "higher"
                   else (pr["child"][m] < pr["parent"][m]) for pr in pairs)
            for m in better}

    report = {
        "label": args.label,
        "command": "python3 benchmark/run.py --workload W --seed S --seconds T --trace 0",
        "traced_command": "python3 benchmark/run.py --workload W --seed S --seconds T --trace 1",
        "seconds": args.seconds,
        "machine": {k: environment[k] for k in ("cpu", "nproc", "openblas", "blas_threads")},
        "python": environment["python"],
        "numpy": environment["numpy"],
        "mpmath": environment["mpmath"],
        "trees": {side: _tree_facts(tree) for side, tree in trees.items()},
        "workloads": workloads,
    }
    out = args.out / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
