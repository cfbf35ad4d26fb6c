"""Command-line interface: commands, formats, exit codes, determinism."""

import json
import math
import re
import warnings
from pathlib import Path

import pytest

import numpy as np

from reachvol import zonotope
from reachvol.analytic import full_volume
from reachvol.cli import _COMMANDS, _build_parser, _parse, _report_json, _to_json, main
from reachvol.model import EigenStructure
from reachvol.zonotope import determinant_count


@pytest.fixture
def diag_model(tmp_path):
    path = tmp_path / "diag05_08.json"
    path.write_text('{"A": [[0.5, 0.0], [0.0, 0.8]], "B": [[1.0], [1.0]]}')
    return str(path)


@pytest.fixture
def spectral_model(tmp_path):
    path = tmp_path / "spectral.json"
    path.write_text('{"lambda": [0.5, 0.8], "beta": [1.0, 1.0]}')
    return str(path)


@pytest.fixture
def mixed_model(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text('{"lambda": [-0.5, 0.5], "beta": [1.0, 1.0]}')
    return str(path)


@pytest.fixture
def narrow_model(tmp_path):
    path = tmp_path / "narrow.json"
    path.write_text('{"lambda": [1.25, 2.0], "beta": [1.0, 1.0]}')
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVolumeCommand:
    def test_known_volume(self, capsys, diag_model):
        code, out, _ = run(capsys, "volume", "--model", diag_model, "--N", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["volume"] == pytest.approx(1.2, rel=1e-12)
        assert doc["route"] == "analytic"
        assert doc["spectrum"] == "AllPositiveDistinct"
        assert len(doc["terms"]) == 4

    def test_direct_and_analytic_agree(self, capsys, diag_model):
        code_a, out_a, _ = run(capsys, "volume", "--model", diag_model,
                               "--N", "6", "--route", "analytic")
        code_d, out_d, _ = run(capsys, "volume", "--model", diag_model,
                               "--N", "6", "--route", "direct")
        assert code_a == 0 and code_d == 0
        va = json.loads(out_a)["volume"]
        vd = json.loads(out_d)["volume"]
        assert va == pytest.approx(vd, rel=1e-9)

    def test_mixed_sign_analytic_domain_error(self, capsys, mixed_model):
        code, _, err = run(capsys, "volume", "--model", mixed_model,
                           "--N", "4", "--route", "analytic")
        assert code == 2
        assert "MixedSign" in err

    def test_malformed_json_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"A": [[0.5,]]}')
        code, _, err = run(capsys, "volume", "--model", str(bad), "--N", "2")
        assert code == 1
        assert "line" in err

    def test_infinite_horizon_without_N(self, capsys, spectral_model):
        code, out, _ = run(capsys, "volume", "--model", spectral_model)
        assert code == 0
        doc = json.loads(out)
        assert doc["route"] == "infinite"
        assert doc["volume"] == pytest.approx(20.0, rel=1e-12)

    def test_narrow_mode_routes_agree(self, capsys, narrow_model):
        vols = {}
        for route in ("analytic", "direct", "recursive"):
            code, out, _ = run(capsys, "volume", "--model", narrow_model,
                               "--N", "4", "--mode", "narrow", "--route", route)
            assert code == 0
            vols[route] = json.loads(out)["volume"]
        assert vols["direct"] == pytest.approx(vols["analytic"], rel=1e-9)
        assert vols["recursive"] == pytest.approx(vols["analytic"], rel=1e-9)

    def test_negative_mode(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text('{"lambda": [-0.8, -0.3], "beta": [1.0, 1.0]}')
        vols = {}
        for route in ("analytic", "direct"):
            code, out, _ = run(capsys, "volume", "--model", str(path),
                               "--N", "5", "--mode", "negative", "--route", route)
            assert code == 0
            vols[route] = json.loads(out)["volume"]
        assert vols["direct"] == pytest.approx(vols["analytic"], rel=1e-9)

    def test_continuous_mode(self, capsys, tmp_path):
        path = tmp_path / "ct.json"
        path.write_text('{"lambda": [-1.0], "beta": [1.0]}')
        code, out, _ = run(capsys, "volume", "--model", str(path),
                           "--T", "1.0", "--mode", "continuous")
        assert code == 0
        assert json.loads(out)["volume"] == pytest.approx(
            2 * (1 - math.exp(-1.0)), rel=1e-12)
        # direct continuous needs --dt
        code, _, err = run(capsys, "volume", "--model", str(path),
                           "--T", "1.0", "--mode", "continuous", "--route", "direct")
        assert code == 1
        code, out, _ = run(capsys, "volume", "--model", str(path), "--T", "1.0",
                           "--mode", "continuous", "--route", "direct", "--dt", "0.001")
        assert code == 0
        assert json.loads(out)["volume"] == pytest.approx(
            2 * (1 - math.exp(-1.0)), rel=1e-2)

    def test_cancellation_past_the_cap_exit_2(self, capsys, tmp_path):
        path = tmp_path / "ct4.json"
        path.write_text('{"lambda": [-2.0, -1.5, -1.0, -0.5], "beta": [1, 1, 1, 1]}')
        code, out, err = run(capsys, "volume", "--model", str(path),
                             "--T", "1e-20", "--mode", "continuous")
        assert (code, out) == (2, "")
        assert err.startswith("reachvol: domain error: IllConditioned: "
                              "the subset expansion cancels by ")

    def test_wide_range_direct_volume_is_not_negative(self, capsys, tmp_path):
        # generators from 1 to 1.111^599 = 3e27 along nearly one direction;
        # the angle-sorted sum printed -1.4996876743667708e+38 here.  A
        # 60-digit sum over the exact powers of these floats gives 6.8557554350453069e31
        path = tmp_path / "wide.json"
        path.write_text('{"A": [[1.01, 0, 0], [0, -0.909, 0], [0, 0, 1.111]], '
                        '"B": [[1], [0.001], [1]]}')
        for route in ("auto", "direct"):
            code, out, err = run(capsys, "volume", "--model", str(path), "--N", "600",
                                 "--route", route)
            assert (code, err) == (0, "")
            assert json.loads(out)["volume"] == pytest.approx(6.8557554350453069e31,
                                                              rel=1e-13)

    def test_graded_direct_volume_matches_analytic(self, capsys, tmp_path):
        # the fast mode's row once pivoted every prefix elimination, and the
        # direct route printed 3.4487e33 for this 1.5118e21 volume
        path = tmp_path / "graded.json"
        path.write_text('{"A": [[1.1685, 0, 0], [0, 0.7255, 0], [0, 0, 0.6722]], '
                        '"B": [[0.605], [8e-6], [7.8e-4]]}')
        volumes = {}
        for route in ("direct", "analytic"):
            code, out, err = run(capsys, "volume", "--model", str(path), "--N", "412",
                                 "--route", route)
            assert (code, err) == (0, "")
            volumes[route] = json.loads(out)["volume"]
        assert abs(volumes["direct"] - volumes["analytic"]) <= 1e-12 * volumes["analytic"]

    @pytest.mark.parametrize("pair_sums,mode", [("_weighted_pair_sums", "discrete"),
                                                ("_pair_sums", "narrow")])
    def test_negative_determinant_sum_exit_2(self, capsys, monkeypatch, tmp_path,
                                             pair_sums, mode):
        # a total that rounds below zero is refused on the anchored path
        # (discrete) and on the generic one (narrow), not printed
        monkeypatch.setattr(zonotope, pair_sums, lambda Y, w=None: -np.ones(len(Y)))
        path = tmp_path / "diag3.json"
        path.write_text('{"A": [[0.5, 0, 0], [0, -0.6, 0], [0, 0, 0.7]], '
                        '"B": [[1], [1], [1]]}')
        code, out, err = run(capsys, "volume", "--model", str(path), "--N", "8",
                             "--mode", mode, "--route", "direct")
        assert (code, out) == (2, "")
        assert err.startswith("reachvol: domain error: the determinant sum cancelled "
                              "to a negative total")

    def test_csv_format(self, capsys, diag_model):
        code, out, _ = run(capsys, "volume", "--model", diag_model, "--N", "2",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "volume,normalized_sum"
        vol = float(lines[1].split(",")[0])
        assert vol == pytest.approx(1.2, rel=1e-12)

    def test_deterministic_output(self, capsys, diag_model):
        _, out1, _ = run(capsys, "volume", "--model", diag_model, "--N", "7")
        _, out2, _ = run(capsys, "volume", "--model", diag_model, "--N", "7")
        assert out1 == out2


class TestReportWriter:
    """The flat term writer against the recursive _to_json walk it replaced."""

    @staticmethod
    def recursive(report):
        return _to_json({
            "volume": report.volume, "normalized_sum": report.normalized_sum,
            "route": report.route, "spectrum": str(report.spectrum),
            "warnings": list(report.warnings),
            "terms": [{"subset": list(t.subset), "sign": t.sign, "power": t.power,
                       "dist_in": t.dist_in, "dist_out": t.dist_out, "value": t.value}
                      for t in report.terms]})

    @pytest.mark.parametrize("lam,N", [([0.5], 1), ([0.3, 0.6, 0.9], 5),
                                       ([0.05, 0.2, 0.4, 0.6, 0.8, 0.95], 90),
                                       ([1.5, 2.0, 3.0], 700)])  # last: inf powers, null
    def test_same_text_as_recursive_walk(self, lam, N):
        report = full_volume(EigenStructure.from_spectrum(lam), N, "analytic")
        assert _report_json(report) == self.recursive(report)


# systems whose direct-route generators overflow double precision
OVERFLOW_MODELS = {
    "unstable": {"A": [[1e200, 0.0], [0.0, 2.0]], "B": [[1.0], [1.0]]},
    "unstable-two-input": {"A": [[1e200, 0.0], [0.0, 2.0]], "B": [[1.0, 0.0], [1.0, 1.0]]},
    "unstable-continuous": {"A": [[300.0, 0.0], [0.0, -1.0]], "B": [[1.0], [1.0]]},
}


@pytest.mark.parametrize("model,argv,horizon", [
    ("unstable", ["volume", "--route", "direct", "--N", "5"], "N = 5"),
    ("unstable-two-input", ["volume", "--N", "5"], "N = 5"),
    ("unstable", ["sweep", "--route", "direct", "--N", "5"], "N = 3"),
    ("unstable-continuous", ["volume", "--T", "5", "--mode", "continuous", "--route", "direct",
                             "--dt", "0.5"], "T = 5.0"),
], ids=["direct", "auto-two-input", "sweep-direct", "continuous-direct"])
def test_overflowing_direct_volume_exit_2(capsys, tmp_path, model, argv, horizon):
    # a domain error, in one stderr line that names the horizon, and no
    # numpy warning on the way
    path = tmp_path / "model.json"
    path.write_text(json.dumps(OVERFLOW_MODELS[model]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv[0], "--model", str(path), *argv[1:])
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (2, "")
    assert err.startswith("reachvol: domain error: ") and err.count("\n") == 1
    assert horizon in err and "overflow" in err


class TestFactorsCommand:
    def test_infinite_factor_report(self, capsys, spectral_model):
        code, out, _ = run(capsys, "factors", "--model", spectral_model)
        assert code == 0
        doc = json.loads(out)
        assert doc["F1"] == pytest.approx(0.3 / 0.6)
        assert doc["F2"] == pytest.approx([2.0, 5.0])
        assert doc["F3"] == pytest.approx([1.0, 1.0])
        assert doc["p_minus"] == [1, 2]

    def test_finite_factor_report(self, capsys, spectral_model):
        code, out, _ = run(capsys, "factors", "--model", spectral_model, "--N", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["F2"][0] == pytest.approx(1.75)
        assert doc["horizon_kind"] == "finite"

    def test_csv_rows(self, capsys, spectral_model):
        code, out, _ = run(capsys, "factors", "--model", spectral_model,
                           "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "i,lambda,side_length,modal,shape_factor"
        assert len(lines) == 3


class TestSweepCommand:
    def test_monotone_volume_and_limit(self, capsys, diag_model):
        code, out, _ = run(capsys, "sweep", "--model", diag_model, "--N", "20")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,V_N,volume,phi_inf,tail"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(2, 21))
        vn = [r[1] for r in rows]
        assert all(b >= a for a, b in zip(vn, vn[1:]))
        # final row close to the infinite-horizon value 5 (term-magnitude bound)
        assert abs(vn[-1] - 5.0) <= 25 * 0.8 ** 20
        assert rows[-1][3] == pytest.approx(5.0, rel=1e-12)

    def test_narrow_sweep_bounded(self, capsys, narrow_model):
        code, out, _ = run(capsys, "sweep", "--model", narrow_model, "--N", "30",
                           "--mode", "narrow")
        assert code == 0
        lines = out.strip().split("\n")
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        vols = [r[2] for r in rows]
        assert all(v <= 8.0 + 1e-9 for v in vols)
        assert vols[-1] == pytest.approx(8.0, abs=0.05)

    def test_empty_range_exit_1(self, capsys, diag_model):
        code, _, err = run(capsys, "sweep", "--model", diag_model, "--N", "1")
        assert code == 1

    def test_deterministic(self, capsys, diag_model):
        _, out1, _ = run(capsys, "sweep", "--model", diag_model, "--N", "12")
        _, out2, _ = run(capsys, "sweep", "--model", diag_model, "--N", "12")
        assert out1 == out2


class TestBenchCommand:
    def test_ladder_counts(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text('{"lambda": [0.2, 0.5, 0.8], "beta": [1.0, 1.0, 1.0]}')
        code, out, _ = run(capsys, "bench", "--model", str(path), "--N", "32",
                           "--trials", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,det_count,direct_ms,recursive_ms,analytic_ms"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [int(r[0]) for r in rows] == [8, 16, 32]
        assert [int(float(r[1])) for r in rows] == [
            determinant_count(8, 3), determinant_count(16, 3),
            determinant_count(32, 3)]
        assert [int(float(r[1])) for r in rows] == [56, 560, 4960]
        assert all(float(r[4]) > 0 for r in rows)

    def test_direct_route_skipped_over_budget(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text('{"lambda": [0.2, 0.5, 0.8], "beta": [1.0, 1.0, 1.0]}')
        code, out, _ = run(capsys, "bench", "--model", str(path), "--N", "2048",
                           "--trials", "1")
        assert code == 0
        last = out.strip().split("\n")[-1].split(",")
        assert int(last[0]) == 2048
        assert last[2] == "nan"  # direct column skipped, not an error
        assert float(last[3]) > 0 and float(last[4]) > 0


class TestCheckCommand:
    def test_default_suite_passes(self, capsys):
        code, out, err = run(capsys, "check", "--trials", "25", "--seed", "0")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["all_pass"] is True
        props = doc["properties"]
        for name in ("vandermonde_positivity", "deletion_identity",
                     "substitution_identities", "three_route_equivalence",
                     "form_equivalence", "narrow_broad_duality",
                     "singular_fallback"):
            assert props[name]["passes"] == props[name]["total"]

    def test_zero_trials_exit_1(self, capsys):
        code, _, _ = run(capsys, "check", "--trials", "0")
        assert code == 1

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "check", "--trials", "5", "--seed", "3")
        _, out2, _ = run(capsys, "check", "--trials", "5", "--seed", "3")
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "check", "--trials", "3", "--format", "csv")
        assert code == 0
        assert out.startswith("property,passes,total")


class TestUsageErrors:
    def test_unknown_route_exit_1(self, capsys, diag_model):
        code = main(["volume", "--model", diag_model, "--N", "2",
                     "--route", "bogus"])
        capsys.readouterr()
        assert code == 1

    def test_missing_model_exit_1(self, capsys):
        code = main(["volume", "--N", "2"])
        capsys.readouterr()
        assert code == 1

    def test_nonexistent_model_file(self, capsys):
        code, _, err = run(capsys, "volume", "--model", "/nonexistent.json",
                           "--N", "2")
        assert code == 1

    # each subcommand takes only the flags it reads; a valid call plus one more
    VALID_CALLS = {"volume": ["--N", "2"], "factors": ["--N", "2"], "sweep": ["--N", "3"],
                   "bench": ["--N", "8", "--trials", "1"], "check": ["--trials", "2"]}

    def test_repeated_calls_same_bytes(self, capsys, diag_model):
        # the parser is built once per process; nothing of one call leaks into the next
        calls = [["--version"], ["volume", "--model", diag_model, "--N", "2", "--bogus"],
                 ["volume", "--N", "2"], ["volume", "--model", diag_model, "--N", "2"]]
        first = [run(capsys, *argv) for argv in calls]
        assert [run(capsys, *argv) for argv in calls] == first
        assert [code for code, _, _ in first] == [0, 1, 1, 0]

    @pytest.mark.parametrize("command,flag", [
        ("volume", ["--seed", "1"]), ("volume", ["--trials", "3"]),
        ("factors", ["--route", "direct"]), ("factors", ["--dt", "0.1"]),
        ("sweep", ["--T", "1"]), ("sweep", ["--dt", "0.1"]),
        ("bench", ["--mode", "narrow"]),
        ("check", ["--N", "3"]), ("check", ["--model", "m.json"]),
        # the tolerances are fixed: no subcommand takes them
        ("volume", ["--eps-sing", "1e-9"]), ("factors", ["--eps-sing", "1e-9"]),
        ("sweep", ["--eps-distinct", "1e-8"]), ("bench", ["--eps-distinct", "1e-8"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"))
    def test_flag_of_another_subcommand_exit_1(self, capsys, diag_model, command, flag):
        model = [] if command == "check" else ["--model", diag_model]
        code, out, err = run(capsys, command, *model, *self.VALID_CALLS[command], *flag)
        assert code == 1
        assert out == ""
        assert f"error: unrecognized arguments: {' '.join(flag)}" in err

    # argv that main hands to a subcommand's own parser or keeps for the
    # top-level one; "M" stands for a model file
    ARGV = {
        "none": [], "version": ["--version"], "help": ["-h"], "volume-help": ["volume", "-h"],
        "unknown-command": ["nope", "--N", "4"], "no-model": ["volume", "--N", "4"],
        "unknown-flag": ["volume", "--model", "M", "--N", "4", "--bogus"],
        "other-subcommand-flag": ["volume", "--model", "M", "--N", "4", "--seed", "1"],
        "bad-choice": ["volume", "--model", "M", "--N", "4", "--route", "nope"],
        "N-not-int": ["volume", "--model", "M", "--N", "x"],
        "N-no-value": ["volume", "--model", "M", "--N"],
        "N-equals": ["volume", "--model", "M", "--N=4"],
        "N-twice": ["volume", "--model", "M", "--N", "4", "--N", "5"],
        "stray-positional": ["volume", "--model", "M", "--N", "4", "stray"],
        "abbreviation": ["volume", "--mod", "M", "--N", "4"],
    }

    @pytest.mark.parametrize("case", ARGV)
    def test_argv_dispatch_matches_top_level_parser(self, capsys, diag_model, case):
        # a refused argv gives the top-level parser's exit code and bytes; a
        # valid one its namespace
        argv = [diag_model if a == "M" else a for a in self.ARGV[case]]
        parser, _ = _build_parser()
        try:
            expected = parser.parse_args(argv)
        except SystemExit as exc:
            want = (exc.code, *capsys.readouterr())
            assert run(capsys, *argv) == want
        else:
            assert _parse(argv) == expected

    def test_readme_flag_table_matches_parser(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` +\| `([^`]*)` \|$", readme, re.MULTILINE)
        assert dict(rows) == {name: flags for name, (_, flags) in _COMMANDS.items()}


# Dispatcher decisions per (model, mode, route, horizon): exit code, the
# route the report names, and its warnings.  Horizons: N5 = --N 5,
# N2 = --N 2 (below n = 3), - = none, T = --T 1.0, T,dt = --T 1.0 --dt 0.1.
DISPATCH_MODELS = {"positive": [0.3, 0.6, 0.9], "negative": [-0.9, -0.6, -0.3],
                   "reciprocal": [0.5, 0.7, 2.0]}
DISPATCH_HORIZONS = {"N5": ["--N", "5"], "N2": ["--N", "2"], "-": [],
                     "T": ["--T", "1.0"], "T,dt": ["--T", "1.0", "--dt", "0.1"]}
DISPATCH_WARNINGS = {
    "FLAT": "N < n: flat region, volume 0",
    "NEG_MODULI": "all-negative spectrum: evaluated on |lambda| sorted ascending",
    "UNSTABLE": "spectrum is not strictly stable; the closed form is exact only "
                "for all-negative spectra",
    "SIGNED": "signed normalized sum is negative; volume is its magnitude",
    "NARROW_ORACLE": "analytic narrow route refused; used generator oracle",
    "RECURSION": "analytic route refused (NearSingularFactor); used recursion",
    "CT_ORACLE": "spectrum class AllPositiveDistinct: the closed form needs an "
                 "all-negative spectrum; used the Riemann oracle",
}
DISPATCH_TABLE = """
positive   discrete   auto      N5    0  analytic  -
positive   discrete   auto      N2    0  analytic  FLAT
positive   discrete   auto      -     0  infinite  -
positive   discrete   direct    N5    0  direct    -
positive   discrete   direct    N2    0  direct    -
positive   discrete   direct    -     0  infinite  -
positive   discrete   recursive N5    0  recursive -
positive   discrete   recursive N2    0  recursive FLAT
positive   discrete   recursive -     1  -         -
positive   discrete   analytic  N5    0  analytic  -
positive   discrete   analytic  N2    0  analytic  FLAT
positive   discrete   analytic  -     0  infinite  -
positive   narrow     auto      N5    0  analytic  -
positive   narrow     auto      N2    0  analytic  FLAT
positive   narrow     auto      -     1  -         -
positive   narrow     direct    N5    0  direct    -
positive   narrow     direct    N2    0  direct    -
positive   narrow     direct    -     1  -         -
positive   narrow     recursive N5    0  recursive -
positive   narrow     recursive N2    0  recursive FLAT
positive   narrow     recursive -     1  -         -
positive   narrow     analytic  N5    0  analytic  -
positive   narrow     analytic  N2    0  analytic  FLAT
positive   narrow     analytic  -     1  -         -
positive   negative   auto      N5    2  -         -
positive   negative   auto      N2    0  analytic  FLAT
positive   negative   auto      -     1  -         -
positive   negative   direct    N5    0  direct    -
positive   negative   direct    N2    0  direct    -
positive   negative   direct    -     1  -         -
positive   negative   recursive N5    0  recursive -
positive   negative   recursive N2    0  recursive FLAT
positive   negative   recursive -     1  -         -
positive   negative   analytic  N5    2  -         -
positive   negative   analytic  N2    0  analytic  FLAT
positive   negative   analytic  -     1  -         -
positive   continuous auto      T     2  -         -
positive   continuous auto      T,dt  0  direct    CT_ORACLE
positive   continuous direct    T     1  -         -
positive   continuous direct    T,dt  0  direct    -
positive   continuous recursive T     1  -         -
positive   continuous recursive T,dt  1  -         -
positive   continuous analytic  T     0  analytic  UNSTABLE
positive   continuous analytic  T,dt  0  analytic  UNSTABLE
negative   discrete   auto      N5    0  analytic  NEG_MODULI
negative   discrete   auto      N2    0  analytic  FLAT
negative   discrete   auto      -     0  infinite  -
negative   discrete   direct    N5    0  direct    -
negative   discrete   direct    N2    0  direct    -
negative   discrete   direct    -     0  infinite  -
negative   discrete   recursive N5    0  recursive NEG_MODULI
negative   discrete   recursive N2    0  recursive FLAT
negative   discrete   recursive -     1  -         -
negative   discrete   analytic  N5    0  analytic  NEG_MODULI
negative   discrete   analytic  N2    0  analytic  FLAT
negative   discrete   analytic  -     0  infinite  -
negative   narrow     auto      N5    0  direct    NARROW_ORACLE
negative   narrow     auto      N2    0  analytic  FLAT
negative   narrow     auto      -     1  -         -
negative   narrow     direct    N5    0  direct    -
negative   narrow     direct    N2    0  direct    -
negative   narrow     direct    -     1  -         -
negative   narrow     recursive N5    0  recursive -
negative   narrow     recursive N2    0  recursive FLAT
negative   narrow     recursive -     1  -         -
negative   narrow     analytic  N5    2  -         -
negative   narrow     analytic  N2    0  analytic  FLAT
negative   narrow     analytic  -     1  -         -
negative   negative   auto      N5    0  analytic  NEG_MODULI
negative   negative   auto      N2    0  analytic  FLAT
negative   negative   auto      -     1  -         -
negative   negative   direct    N5    0  direct    -
negative   negative   direct    N2    0  direct    -
negative   negative   direct    -     1  -         -
negative   negative   recursive N5    0  recursive NEG_MODULI
negative   negative   recursive N2    0  recursive FLAT
negative   negative   recursive -     1  -         -
negative   negative   analytic  N5    0  analytic  NEG_MODULI
negative   negative   analytic  N2    0  analytic  FLAT
negative   negative   analytic  -     1  -         -
negative   continuous auto      T     0  analytic  SIGNED
negative   continuous auto      T,dt  0  analytic  SIGNED
negative   continuous direct    T     1  -         -
negative   continuous direct    T,dt  0  direct    -
negative   continuous recursive T     1  -         -
negative   continuous recursive T,dt  1  -         -
negative   continuous analytic  T     0  analytic  SIGNED
negative   continuous analytic  T,dt  0  analytic  SIGNED
reciprocal discrete   auto      N5    0  recursive RECURSION
reciprocal discrete   auto      N2    0  analytic  FLAT
reciprocal discrete   auto      -     2  -         -
reciprocal discrete   direct    N5    0  direct    -
reciprocal discrete   direct    N2    0  direct    -
reciprocal discrete   direct    -     2  -         -
reciprocal discrete   recursive N5    0  recursive -
reciprocal discrete   recursive N2    0  recursive FLAT
reciprocal discrete   recursive -     1  -         -
reciprocal discrete   analytic  N5    2  -         -
reciprocal discrete   analytic  N2    0  analytic  FLAT
reciprocal discrete   analytic  -     2  -         -
reciprocal narrow     auto      N5    0  direct    NARROW_ORACLE
reciprocal narrow     auto      N2    0  analytic  FLAT
reciprocal narrow     auto      -     1  -         -
reciprocal narrow     direct    N5    0  direct    -
reciprocal narrow     direct    N2    0  direct    -
reciprocal narrow     direct    -     1  -         -
reciprocal narrow     recursive N5    0  recursive -
reciprocal narrow     recursive N2    0  recursive FLAT
reciprocal narrow     recursive -     1  -         -
reciprocal narrow     analytic  N5    2  -         -
reciprocal narrow     analytic  N2    0  analytic  FLAT
reciprocal narrow     analytic  -     1  -         -
reciprocal negative   auto      N5    2  -         -
reciprocal negative   auto      N2    0  analytic  FLAT
reciprocal negative   auto      -     1  -         -
reciprocal negative   direct    N5    0  direct    -
reciprocal negative   direct    N2    0  direct    -
reciprocal negative   direct    -     1  -         -
reciprocal negative   recursive N5    0  recursive -
reciprocal negative   recursive N2    0  recursive FLAT
reciprocal negative   recursive -     1  -         -
reciprocal negative   analytic  N5    2  -         -
reciprocal negative   analytic  N2    0  analytic  FLAT
reciprocal negative   analytic  -     1  -         -
reciprocal continuous auto      T     2  -         -
reciprocal continuous auto      T,dt  0  direct    CT_ORACLE
reciprocal continuous direct    T     1  -         -
reciprocal continuous direct    T,dt  0  direct    -
reciprocal continuous recursive T     1  -         -
reciprocal continuous recursive T,dt  1  -         -
reciprocal continuous analytic  T     0  analytic  UNSTABLE
reciprocal continuous analytic  T,dt  0  analytic  UNSTABLE
"""


def _dispatch_cells():
    for line in DISPATCH_TABLE.strip().splitlines():
        model, mode, route, horizon, code, *rest = line.split()
        got_route = None if rest[0] == "-" else rest[0]
        warns = [] if rest[1:] in ([], ["-"]) else [
            DISPATCH_WARNINGS[w] for w in rest[1].split(",")]
        yield pytest.param(model, mode, route, horizon, int(code), got_route, warns,
                           id=f"{model}-{mode}-{route}-{horizon}")


class TestDispatchMatrix:
    def test_matrix_covers_every_cell(self):
        cells = {(c.values[0], c.values[1], c.values[2], c.values[3])
                 for c in _dispatch_cells()}
        assert len(cells) == 3 * (3 * 4 * 3 + 4 * 2)

    @pytest.mark.parametrize("model,mode,route,horizon,code,got_route,warnings",
                             list(_dispatch_cells()))
    def test_cell(self, capsys, tmp_path, model, mode, route, horizon, code, got_route,
                  warnings):
        path = tmp_path / f"{model}.json"
        path.write_text(json.dumps({"lambda": DISPATCH_MODELS[model], "beta": [1.0] * 3}))
        rc, out, err = run(capsys, "volume", "--model", str(path), "--mode", mode,
                           "--route", route, *DISPATCH_HORIZONS[horizon])
        assert rc == code, err
        if code == 0:
            doc = json.loads(out)
            assert doc["route"] == got_route
            assert doc["warnings"] == warnings
        else:
            assert out == ""
            assert err.startswith("reachvol: ")
