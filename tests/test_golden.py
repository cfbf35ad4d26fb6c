"""Byte-for-byte CLI output on a fixed set of expansion requests.

Each case runs ``reachvol <command> --model tests/golden/<name>.json
<args>`` and compares stdout with ``tests/golden/<name>.out``.  The models
are in spectral form, so no eigendecomposition enters the bytes.  The
expected files were written by the 40-digit mpmath kernel, before the
double-double kernel replaced it.  Every case cancels by less than 1e20,
where the kernel must reproduce those bytes exactly.  The cases cover each
mode near its anchor and far out, n from 6 to 10, both precision paths, a
far request whose smaller powers are subnormal, and a JSON sweep.
"""

from pathlib import Path

import pytest

from reachvol.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (subcommand, arguments after --model); reference cancellation in the comment
CASES = {
    "d7_anchor": ("volume", ["--N", "7"]),                                  # 2.6e8
    "d9_anchor": ("volume", ["--N", "9"]),                                  # 1.8e14
    "d10_mid": ("volume", ["--N", "20", "--format", "csv"]),                # 5.3e3
    "d8_far": ("volume", ["--N", "72"]),                                    # 1.2
    "d10_far_subnormal": ("volume", ["--N", "90"]),                         # 1.0
    "auto_negative9_far": ("volume", ["--N", "81"]),                        # 1.0
    "negative8_anchor": ("volume", ["--N", "10", "--mode", "negative"]),    # 3.2e7
    "negative7_far": ("volume", ["--N", "63", "--mode", "negative"]),       # 1.1
    "narrow7_anchor": ("volume", ["--N", "14", "--mode", "narrow"]),        # 2.4e7
    "narrow9_anchor": ("volume", ["--N", "11", "--mode", "narrow"]),        # 6.0e18
    "narrow8_far": ("volume", ["--N", "72", "--mode", "narrow"]),           # 1.5
    "continuous7_anchor": ("volume", ["--T", "1.5", "--mode", "continuous"]),  # 2.0e14
    "continuous8_mid": ("volume", ["--T", "4.0", "--mode", "continuous"]),  # 1.2e8
    "continuous9_far": ("volume", ["--T", "18.0", "--mode", "continuous"]),    # 2.2
    "sweep6_json": ("sweep", ["--N", "14", "--format", "json"]),            # 3.1e8 .. 3.1e2
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    command, args = CASES[name]
    code = main([command, "--model", str(GOLDEN / f"{name}.json"), *args])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (GOLDEN / f"{name}.out").read_text()
