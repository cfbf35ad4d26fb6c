"""Digest of the CLI's output on every benchmark request, for comparing two trees.

    python3 tools/cli_digest.py SRC_DIR

Runs each block request of ``benchmark/workloads.generate(w, 0, 100)`` for
the four workloads (449 requests) through ``reachvol.cli.main`` imported
from SRC_DIR, in this process, and prints one line per request:

    workload id exit sha256(stdout) sha256(stderr) value

where value is the first figure the request reports, as %.17g: the
``volume`` of a JSON report (of its first row for a sweep), ``F1`` of a
JSON factor report, the ``volume`` column of the first CSV row (the
``side_length`` column of a CSV factor report, the first value when there
is neither), or ``-`` when there is none.  Two trees print the same lines
exactly when every request gives the same bytes and exit code on both;
``diff`` of two runs names the requests that changed, and the values give
the size of each change.  The workload definitions are read from this
checkout's ``benchmark/`` and are not modified.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
REQUESTS = 100


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _first_value(out):
    try:
        doc = json.loads(out)
        key = next((k for k in ("volume", "F1") if k in doc), None)
        value = doc[key] if key else doc["rows"][0]["volume"]
    except ValueError:  # not JSON: CSV
        lines = out.splitlines()
        if len(lines) < 2:
            return "-"
        header, row = lines[0].split(","), lines[1].split(",")
        column = next((c for c in ("volume", "side_length") if c in header), None)
        value = row[header.index(column) if column else 0]
    except (KeyError, IndexError, TypeError):
        return "-"
    try:
        return "%.17g" % float(value)
    except (TypeError, ValueError):
        return "-"


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def main(argv):
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 1
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(ROOT / "benchmark"))
    sys.path.insert(0, str(src))
    import workloads
    from reachvol import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"reachvol imported from {cli.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            plan = workloads.generate(workload, SEED, REQUESTS)
            models = Path(tmp) / workload
            models.mkdir()
            for name, model in plan["models"].items():
                (models / name).write_text(json.dumps(model))
            for req in (r for block in plan["blocks"] for r in block):
                argv = [req["kind"], "--model", str(models / req["model"])] + req["argv"]
                code, out, err = _run(cli, argv)
                print(workload, req["id"], code, _sha(out), _sha(err), _first_value(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
