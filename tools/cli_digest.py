"""Digest of the CLI's output on every benchmark request and on fixed edge
invocations, for comparing two trees.

    python3 tools/cli_digest.py SRC_DIR

Runs each block request of ``benchmark/workloads.generate(w, 0, 100)`` for
the four workloads (449 requests) through ``reachvol.cli.main`` imported
from SRC_DIR, in this process, and prints one line per request:

    workload id exit sha256(stdout) sha256(stderr) value

Then it runs the invocations of ``EDGES`` (workload ``edge``), which no
benchmark request reaches: usage errors and argv forms the parsers must
treat alike, malformed model files, and systems whose direct-route
generators overflow.  Their model files are written to the same temporary
directory, which is the working directory while they run, so that the
paths in their messages are the same on every run.

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
import os
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
REQUESTS = 100

# edge model files: name -> file text
EDGE_MODELS = {
    "model.json": '{"A": [[0.5, 0.0], [0.0, 0.8]], "B": [[1.0], [1.0]]}',
    "invalid.json": '{"A": [[0.5, 0.0], [0.0, 0.8]], "B": [[1.0], [1.0]]',
    "array.json": '[[0.5, 0.0], [0.0, 0.8]]',
    "no-B.json": '{"A": [[0.5, 0.0], [0.0, 0.8]]}',
    "ragged-A.json": '{"A": [[0.5, 0.0], [0.8]], "B": [[1.0], [1.0]]}',
    "string-entry.json": '{"A": [[0.5, "x"], [0.0, 0.8]], "B": [[1.0], [1.0]]}',
    "unstable.json": '{"A": [[1e200, 0], [0, 2]], "B": [[1], [1]]}',
    "unstable-two-input.json": '{"A": [[1e200, 0], [0, 2]], "B": [[1, 0], [1, 1]]}',
    "unstable-continuous.json": '{"A": [[300, 0], [0, -1]], "B": [[1], [1]]}',
}
VOLUME = ["volume", "--model", "model.json"]
# edge invocations: id -> argv
EDGES = {
    "argv-none": [],
    "argv-version": ["--version"],
    "argv-help": ["-h"],
    "argv-volume-help": ["volume", "-h"],
    "argv-unknown-command": ["nope", "--N", "4"],
    "argv-no-model": ["volume", "--N", "4"],
    "argv-unknown-flag": VOLUME + ["--N", "4", "--bogus"],
    "argv-other-subcommand-flag": VOLUME + ["--N", "4", "--seed", "1"],
    "argv-bad-choice": VOLUME + ["--N", "4", "--route", "nope"],
    "argv-N-not-int": VOLUME + ["--N", "x"],
    "argv-N-no-value": VOLUME + ["--N"],
    "argv-N-equals": VOLUME + ["--N=4"],
    "argv-N-twice": VOLUME + ["--N", "4", "--N", "5"],
    "argv-stray-positional": VOLUME + ["--N", "4", "stray"],
    "argv-abbreviation": ["volume", "--mod", "model.json", "--N", "4"],
    **{f"model-{name[:-5]}": ["volume", "--model", name, "--N", "4"]
       for name in ("invalid.json", "array.json", "no-B.json", "ragged-A.json",
                    "string-entry.json")},
    "overflow-direct": ["volume", "--model", "unstable.json", "--route", "direct", "--N", "5"],
    "overflow-auto-two-input": ["volume", "--model", "unstable-two-input.json", "--N", "5"],
    "overflow-sweep-direct": ["sweep", "--model", "unstable.json", "--route", "direct",
                              "--N", "5"],
    "overflow-continuous-direct": ["volume", "--model", "unstable-continuous.json", "--T", "5",
                                   "--mode", "continuous", "--route", "direct", "--dt", "0.5"],
}


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
    # numpy warnings go to stderr too, by way of warnings.showwarning
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
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
        for name, text in EDGE_MODELS.items():
            (Path(tmp) / name).write_text(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, argv in EDGES.items():
                code, out, err = _run(cli, argv)
                print("edge", name, code, _sha(out), _sha(err), _first_value(out))
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
