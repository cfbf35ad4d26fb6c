"""Batch command-line front end.

Subcommands: volume (one region volume by any route), factors (capability
factor report), sweep (volume across a horizon range, CSV), bench (route
timing ladder), check (seeded identity/equivalence suite).  Model files
are JSON, either {"A": [[...]], "B": [[...]]} or {"lambda": [...],
"beta": [...]}.

Exit codes: 0 success, 1 usage or parse errors, 2 domain errors (the
message carries the spectrum classification), 3 check-suite property
failure.
"""

import argparse
import json
import sys
import time
from functools import cache, lru_cache
from math import inf

import numpy as np

from . import __version__
from .analytic import (
    ROUTES,
    analytic_volume_sum,
    analytic_volume_sum_grouped,
    deletion_identity_residual,
    full_volume,
    quasi_vandermonde,
    recursive_volume_sum,
    substitution_identity_residuals,
)
from .extensions import MODES, volume
from .factors import build_factor_report
from .model import (
    EigenStructure,
    SpectrumError,
    StateSpaceModel,
    VolumeDomainError,
    load_model,
    narrow_generators,
    reachability_generators,
)
from .sampling import random_invertible, random_spectrum
from .zonotope import determinant_count, symmetric_volume

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CHECK = 3

_BENCH_DET_BUDGET = 10_000_000


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, leaving 2 for domain errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x):
    """Deterministic 17-significant-digit float formatting."""
    if isinstance(x, float):
        if x != x or x in (inf, -inf):
            return "null"
        return format(x, ".17g")
    return None


def _to_json(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  "{k}": {_to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def _print_json(doc):
    sys.stdout.write(_to_json(doc) + "\n")


def _csv_cell(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return str(v)
    x = float(v)
    if x != x:
        return "nan"
    return _fmt(x)


def _print_csv(header, rows):
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(_csv_cell(v) for v in row) + "\n")


def _load(path):
    try:
        system = load_model(path)
    except json.JSONDecodeError as exc:
        raise SystemExit(_fail(EXIT_USAGE, f"malformed JSON in {path}: {exc.msg} "
                                           f"(line {exc.lineno}, column {exc.colno})"))
    except (OSError, ValueError) as exc:
        raise SystemExit(_fail(EXIT_USAGE, f"cannot load model {path}: {exc}"))
    return system


def _fail(code, message):
    sys.stderr.write(f"reachvol: {message}\n")
    return code


# One subset term as _to_json writes it inside the report's term list.
_TERM = ('    {\n      "subset": %s,\n      "sign": %d,\n      "power": %.17g,\n'
         '      "dist_in": %.17g,\n      "dist_out": %.17g,\n      "value": %.17g\n    }')


@lru_cache(maxsize=4096)
def _subset_json(subset):
    return _to_json(list(subset), 3)


def _terms_json(terms):
    """The term list as _to_json writes it, with one format string per term."""
    if not terms:
        return "[]"
    text = ",\n".join([_TERM % (_subset_json(t[0]), *t[1:]) for t in terms])
    if "inf" in text or "nan" in text:  # no key holds either; _fmt writes null
        text = text.replace("-inf", "null").replace("inf", "null").replace("nan", "null")
    return "[\n" + text + "\n  ]"


def _report_json(report):
    text = _to_json({
        "volume": report.volume,
        "normalized_sum": report.normalized_sum,
        "route": report.route,
        "spectrum": str(report.spectrum) if report.spectrum is not None else None,
        "warnings": list(report.warnings),
    })
    if report.terms is None:
        return text
    # the terms go last, before the closing "\n}"
    return f'{text[:-2]},\n  "terms": {_terms_json(report.terms)}\n}}'


def cmd_volume(args):
    system = _load(args.model)
    horizon = args.T if args.mode == "continuous" else args.N
    report = volume(system, horizon, args.mode, args.route, dt=args.dt)
    if args.format == "csv":
        _print_csv(["volume", "normalized_sum"],
                   [[report.volume,
                     report.normalized_sum if report.normalized_sum is not None
                     else float("nan")]])
    else:
        sys.stdout.write(_report_json(report) + "\n")
    return EXIT_OK


def cmd_factors(args):
    system = _load(args.model)
    eig = system.eigen
    if args.mode == "continuous":
        if args.T is None:
            raise SystemExit(_fail(EXIT_USAGE, "continuous mode needs --T"))
        mode, horizon = "continuous", args.T
    elif args.mode == "narrow":
        if args.N is None:
            raise SystemExit(_fail(EXIT_USAGE, "narrow mode needs --N"))
        mode, horizon = "narrow", args.N
    elif args.N is not None:
        mode, horizon = "finite", args.N
    else:
        mode, horizon = "infinite", None
    rep = build_factor_report(eig, mode, horizon)
    if args.format == "csv":
        rows = [[i + 1, float(eig.eigenvalues[i]), rep.F2[i], rep.F3[i], rep.F1]
                for i in range(eig.n)]
        _print_csv(["i", "lambda", "side_length", "modal", "shape_factor"], rows)
    else:
        _print_json({
            "F1": rep.F1,
            "F1_pairs": [[float(v) for v in row] for row in rep.F1_pairs],
            "F2": list(rep.F2),
            "F3": list(rep.F3),
            "p_plus": list(rep.p_plus),
            "p_minus": list(rep.p_minus),
            "horizon_kind": mode,
        })
    return EXIT_OK


def cmd_sweep(args):
    system = _load(args.model)
    if args.mode == "continuous":
        raise SystemExit(_fail(EXIT_USAGE, "sweep runs over discrete horizons"))
    if args.N is None:
        raise SystemExit(_fail(EXIT_USAGE, "sweep needs --N (inclusive upper end)"))
    n = system.n
    if args.N < n:
        raise SystemExit(_fail(EXIT_USAGE,
                               f"empty sweep range: --N {args.N} is below n={n}"))
    phi_inf = None
    if args.mode == "discrete":
        try:
            phi_inf = full_volume(system, None, "auto").normalized_sum
        except (SpectrumError, VolumeDomainError, ValueError):
            phi_inf = None
    rows = []
    for N in range(n, args.N + 1):
        report = volume(system, N, args.mode, args.route)
        vn = report.normalized_sum if report.normalized_sum is not None else float("nan")
        if phi_inf is not None:
            rows.append([N, vn, report.volume, phi_inf, vn - phi_inf])
        else:
            rows.append([N, vn, report.volume])
    header = ["N", "V_N", "volume"] + (["phi_inf", "tail"] if phi_inf is not None else [])
    if args.format == "json":
        _print_json({"rows": [dict(zip(header, r)) for r in rows]})
    else:
        _print_csv(header, rows)
    return EXIT_OK


def _median_time(fn, trials):
    samples = []
    for _ in range(trials):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def cmd_bench(args):
    system = _load(args.model)
    model = system.to_model()
    lam = model.eigen.eigenvalues
    n = model.n
    trials = args.trials if args.trials is not None else 5
    if trials < 1:
        raise SystemExit(_fail(EXIT_USAGE, "--trials must be >= 1"))
    top = args.N if args.N is not None else 64
    ladder = []
    N = 8
    while N <= top:
        ladder.append(N)
        N *= 2
    if not ladder:
        raise SystemExit(_fail(EXIT_USAGE, f"--N {top} is below the smallest rung 8"))
    rows = []
    for N in ladder:
        count = determinant_count(max(N, n), n)
        if count <= _BENCH_DET_BUDGET:
            t_direct = _median_time(lambda: full_volume(model, N, "direct"), trials)
        else:
            t_direct = float("nan")  # skipped: determinant budget exceeded
        t_rec = _median_time(lambda: recursive_volume_sum(lam, N), trials)
        t_ana = _median_time(lambda: analytic_volume_sum(lam, N), trials)
        rows.append([N, count, t_direct * 1e3, t_rec * 1e3, t_ana * 1e3])
    header = ["N", "det_count", "direct_ms", "recursive_ms", "analytic_ms"]
    if args.format == "json":
        _print_json({"rows": [dict(zip(header, r)) for r in rows]})
    else:
        _print_csv(header, rows)
    return EXIT_OK


def _run_check_suite(seed, trials):
    rng = np.random.default_rng(seed)
    results = {}
    failures = []

    def record(name, ok, detail):
        passes, total = results.get(name, (0, 0))
        results[name] = (passes + bool(ok), total + 1)
        if not ok:
            failures.append((name, detail))

    for _ in range(trials):
        n = int(rng.integers(1, 6))
        lam = random_spectrum(rng, n)

        # quasi-Vandermonde positivity
        exps = np.sort(rng.choice(np.arange(0, 3 * n + 4), n, replace=False))
        d = quasi_vandermonde(lam, exps)
        record("vandermonde_positivity", d > 0.0,
               f"lam={lam.tolist()} exps={exps.tolist()} det={d}")

        # deletion identity
        r = deletion_identity_residual(lam)
        record("deletion_identity", abs(r) < 1e-11, f"lam={lam.tolist()} residual={r}")

        # substitution identities (need n >= 2 for member pairs)
        if n >= 2:
            i, j = 1, n
            r1, r2, r3 = substitution_identity_residuals(lam, i, j)
            ok = max(abs(r1), abs(r2), abs(r3)) < 1e-11
            record("substitution_identities", ok,
                   f"lam={lam.tolist()} residuals=({r1},{r2},{r3})")

        # three-route equivalence
        N = int(rng.integers(n, 13))
        M = lam[:, None] ** np.arange(N)[None, :]
        direct = symmetric_volume(M) / 2.0 ** n
        ana = analytic_volume_sum(lam, N)
        rec = recursive_volume_sum(lam, N)
        ok = (abs(ana - direct) <= 1e-9 * direct and
              abs(rec - direct) <= 1e-9 * direct)
        record("three_route_equivalence", ok,
               f"lam={lam.tolist()} N={N} direct={direct} analytic={ana} rec={rec}")

        # grouped-form equivalence
        g1 = analytic_volume_sum_grouped(lam, N, "complement")
        g2 = analytic_volume_sum_grouped(lam, N, "factored")
        ok = (abs(g1 - ana) <= 1e-12 * abs(ana) and abs(g2 - ana) <= 1e-12 * abs(ana))
        record("form_equivalence", ok, f"lam={lam.tolist()} N={N} forms=({ana},{g1},{g2})")

        # narrow/broad duality through the generator oracle
        nd = int(rng.integers(1, 4))
        A = random_invertible(rng, nd)
        B = rng.uniform(-1.0, 1.0, (nd, int(rng.integers(1, 3))))
        model = StateSpaceModel(A, B)
        Nd = int(rng.integers(1, 8))
        inv_model = StateSpaceModel(np.linalg.inv(A), B)
        det = abs(np.linalg.det(A))
        lhs_c = symmetric_volume(narrow_generators(model, Nd))
        rhs_c = symmetric_volume(reachability_generators(inv_model, Nd)) / det
        lhs_d = symmetric_volume(reachability_generators(model, Nd))
        rhs_d = symmetric_volume(narrow_generators(inv_model, Nd)) / det
        scale = max(lhs_c, rhs_c, lhs_d, rhs_d, 1e-300)
        ok = (abs(lhs_c - rhs_c) <= 1e-9 * scale and abs(lhs_d - rhs_d) <= 1e-9 * scale)
        record("narrow_broad_duality", ok,
               f"A={A.tolist()} B={B.tolist()} N={Nd} "
               f"({lhs_c},{rhs_c}) ({lhs_d},{rhs_d})")

    # fixed reciprocal-pair case: analytic refuses, fallback still agrees
    eigp = EigenStructure.from_spectrum([0.5, 2.0], [1.0, 1.0])
    try:
        analytic_volume_sum(eigp.eigenvalues, 6)
        record("singular_fallback", False, "analytic route accepted a reciprocal pair")
    except SpectrumError:
        rep = full_volume(eigp, 6, "auto")
        direct = full_volume(eigp, 6, "direct").volume
        ok = rep.route == "recursive" and abs(rep.volume - direct) <= 1e-9 * direct
        record("singular_fallback", ok,
               f"route={rep.route} volume={rep.volume} direct={direct}")
    return results, failures


def cmd_check(args):
    trials = args.trials if args.trials is not None else 50
    if trials < 1:
        raise SystemExit(_fail(EXIT_USAGE, "--trials must be >= 1"))
    seed = args.seed if args.seed is not None else 0
    results, failures = _run_check_suite(seed, trials)
    if args.format == "csv":
        _print_csv(["property", "passes", "total"],
                   [[k, p, t] for k, (p, t) in results.items()])
    else:
        _print_json({"seed": seed, "trials": trials,
                     "properties": {k: {"passes": p, "total": t}
                                    for k, (p, t) in results.items()},
                     "all_pass": not failures})
    if failures:
        sys.stderr.write(f"reachvol: check failed with seed {seed}; counterexamples:\n")
        for name, detail in failures[:10]:
            sys.stderr.write(f"  {name}: {detail}\n")
        return EXIT_CHECK
    return EXIT_OK


# Every flag a subcommand can take: option string and add_argument keywords.
_FLAGS = {
    "--model": dict(required=True, help="JSON model file"),
    "--N": dict(type=int, help="discrete horizon (steps)"),
    "--T": dict(type=float, help="continuous horizon (time)"),
    "--dt": dict(type=float, help="discretization step for the continuous direct route"),
    "--route": dict(choices=ROUTES, default="auto"),
    "--mode": dict(choices=MODES, default="discrete"),
    "--format": dict(choices=["json", "csv"]),
    "--seed": dict(type=int),
    "--trials": dict(type=int),
}

# Per subcommand: its default output format and the flags its handler reads.
_COMMANDS = {
    "volume": ("json", "--model --N --T --dt --route --mode --format"),
    "factors": ("json", "--model --N --T --mode --format"),
    "sweep": ("csv", "--model --N --route --mode --format"),
    "bench": ("csv", "--model --N --trials --format"),
    "check": ("json", "--seed --trials --format"),
}


@cache
def _build_parser():
    """The top-level parser and, per subcommand, its own parser."""
    parser = _Parser(prog="reachvol",
                     description="Volumes of bounded-input reachable and "
                                 "controllable regions of linear systems.")
    parser.add_argument("--version", action="version", version=f"reachvol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (default_fmt, flags) in _COMMANDS.items():
        # no prefix matching: "bench --mode" must not be read as "--model"
        p = commands[name] = sub.add_parser(name, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(default_format=default_fmt)
    return parser, commands


def _parse(argv):
    """parser.parse_args(argv), with a subcommand's arguments parsed once, by
    its own parser; the top-level parser takes the rest and reports leftovers."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None):
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.format is None:
        args.format = args.default_format
    handler = {"volume": cmd_volume, "factors": cmd_factors, "sweep": cmd_sweep,
               "bench": cmd_bench, "check": cmd_check}[args.command]
    try:
        return handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (SpectrumError, VolumeDomainError) as exc:
        return _fail(EXIT_DOMAIN, f"domain error: {exc}")
    except OverflowError as exc:
        return _fail(EXIT_DOMAIN, f"domain error: {exc}")
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
