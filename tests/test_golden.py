"""Byte-for-byte CLI output on a fixed set of expansion and factor requests.

Each case runs ``reachvol <command> --model tests/golden/<name>.json
<args>`` and compares stdout with ``tests/golden/<name>.out``.  The models
are in spectral form, so no eigendecomposition enters the bytes.

The volume and sweep files were written by the 40-digit mpmath kernel,
before the double-double kernel replaced it.  Every such case cancels by
less than 1e20, where the kernel must reproduce those bytes exactly.  They
cover each mode near its anchor and far out, n from 6 to 10, both precision
paths, a far request whose smaller powers are subnormal, and a JSON sweep.

The ``factors*`` files pin the capability-factor reports, one per horizon
kind, in both output formats.  The four positive-spectrum kinds were
written by the code as it stood before the distribution-factor forms moved
into ``reachvol.model``, so they also pin that move.  The negative-spectrum
case was written after the side lengths took |lambda|, and its side lengths
are checked against the half-widths of the region's 2^N vertices.
"""

import itertools
import json
from pathlib import Path

import numpy as np
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
    "factors5_finite": ("factors", ["--N", "12"]),
    "factors4_infinite": ("factors", ["--format", "csv"]),
    "factors6_narrow": ("factors", ["--N", "9", "--mode", "narrow"]),
    "factors5_continuous": ("factors", ["--T", "2.5", "--mode", "continuous", "--format", "csv"]),
    "factors3_negative": ("factors", ["--N", "8", "--mode", "negative"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    command, args = CASES[name]
    code = main([command, "--model", str(GOLDEN / f"{name}.json"), *args])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (GOLDEN / f"{name}.out").read_text()


def test_negative_side_lengths_are_brute_force_half_widths():
    # spectral form: the modal coordinates are the state's, and the vertices
    # are sum_k lambda^k beta u_k over the sign inputs u
    model = json.loads((GOLDEN / "factors3_negative.json").read_text())
    report = json.loads((GOLDEN / "factors3_negative.out").read_text())
    lam, beta = np.array(model["lambda"]), np.array(model["beta"])
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=8))).T
    widths = np.max(np.abs((beta[:, None] * lam[:, None] ** np.arange(8)) @ signs), axis=1)
    np.testing.assert_allclose(report["F2"], widths, rtol=1e-14)
