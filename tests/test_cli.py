"""Command line behaviour: artifacts, exit codes, reproducibility."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qsphere
from qsphere import suites
from qsphere.cli import main
from qsphere.exprs import canonical_json


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_one_parser_serves_every_call(capsys):
    # main builds its argparse tree once per process: a usage error, a
    # run and --print-config in a row give what each gives in a fresh
    # process
    src = str(Path(qsphere.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    calls = (["haar", "--q", "1/2", "--expr", "A", "--cache-dir", "x"],
             ["haar", "--q", "1/2", "--expr", "b*bs"],
             ["dist", "--q", "2/3", "--N", "2", "--print-config"])
    for argv, want in zip(calls, (1, 0, 0)):
        code, out, _ = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from qsphere.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, timeout=300)
        assert code == proc.returncode == want
        assert out == proc.stdout.decode()


def test_haar_example(capsys):
    code, out, _ = run(capsys, "haar", "--q", "1/2", "--expr", "b*bs")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "qsphere/4"
    assert obj["kind"] == "haar"
    assert obj["scalar"] == {"num": 4, "den": 5}
    assert obj["config"]["q"] == "1/2"


def test_expand_reorders(capsys):
    code, out, _ = run(capsys, "expand", "--q", "1/2", "--expr", "b*a")
    assert code == 0
    obj = json.loads(out)
    assert obj["element"] == [
        {"aExp": 1, "bExp": 1, "bStarExp": 0, "coeffNum": 1, "coeffDen": 2}]


def test_act(capsys):
    code, out, _ = run(capsys, "act", "--q", "1/2", "--action", "delta1",
                       "--expr", "A")
    assert code == 0
    assert json.loads(out)["text"] == "-a*bs"


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--q", "1/2", "--N", "1",
                       "--max-spin", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,c"
    assert lines[1] == "0,1.0"
    assert abs(float(lines[2].split(",")[1]) - 16 / 21) < 1e-12
    assert float(lines[3].split(",")[1]) == 0.0


def test_berezin_artifact(capsys):
    code, out, _ = run(capsys, "berezin", "--q", "1/2", "--N", "1",
                       "--expr", "A")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "berezin"
    assert obj["text"].startswith("4/21")
    assert obj["spectrum"][1]["c"] == {"num": 16, "den": 21}


# an element whose coefficients use all four components of Q(i, sqrt(10))
_SURD_EXPR = ("(1/3 + 2/5*i + 3/7*sqrt(10) - 1/2*i*sqrt(10))*B*A"
              " + (2 - i)*Bs + sqrt(10)*A")


@pytest.mark.parametrize("argv,sha256,text", [
    (("berezin", "--N", "2"),
     "b559e4f42d9c52da5d576cedccce8c34ea029eb473d3d1bb72de42b9aaa8a5a1",
     "(200000/149049-100000/149049*i)*as*b + 656100/2997541*sqrt(10)"
     " + 10000/16561*sqrt(10)*b*bs + (488700000000/5677124396581"
     "+586440000000/5677124396581*i+4398300000000/39739870776067*sqrt(10)"
     "-733050000000/5677124396581*i*sqrt(10))*a*bs"
     " + (1000000000000/17031373189743+400000000000/5677124396581*i"
     "+3000000000000/39739870776067*sqrt(10)"
     "-500000000000/5677124396581*i*sqrt(10))*a*b*bs^2"),
    (("act", "--action", "partialE"),
     "58a26b698c8f37641ac80275388a8ee561cb152a7e82d4e70fb323e7faca45e0",
     "(-20/27*sqrt(10)+10/27*i*sqrt(10))*as^2 - 100/27*as*bs"
     " + (-1000/567+500/243*i-100/729*sqrt(10)-40/243*i*sqrt(10))*bs^2"
     " + (1810/567-905/243*i+181/729*sqrt(10)+362/1215*i*sqrt(10))*b*bs^3"),
    (("coproduct",),
     "e8d6729fdc263039c7dae6e05506ba32531a0229ff392d83a0a826946116a04b",
     None),
], ids=["berezin", "act", "coproduct"])
def test_frozen_surd_artifacts(capsys, argv, sha256, text):
    # complex and sqrt(10) coefficients at q = 9/10; the digests are the
    # artifact bytes written by the four-Fraction scalar representation,
    # re-recorded for the qsphere/4 schema tag and the four config keys it
    # dropped (trendTol, estimatorGap, cacheDir, outputFormat): without
    # schema and config the bytes are those of qsphere/2
    code, out, _ = run(capsys, *argv, "--q", "9/10", "--expr", _SURD_EXPR)
    assert code == 0
    if text is not None:
        assert json.loads(out)["text"] == text
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("q,suite,sha256", [
    ("1/2", "projections",
     "98061174a4d108896c54e70fce290aa2fffa495efa320ad18f931af35f73c2c8"),
    ("9/10", "projections",
     "7ee37decbedc8014aace36107d27709d4bf71a7dc334631d0b67fbc3e21226af"),
    ("1/2", "berezin",
     "96e0f6fe6643ab96114cb0bba8ee965f6ff45e5818d291dec1fd882a819a6318"),
], ids=["projections-half", "projections-nine", "berezin-half"])
def test_frozen_exact_verify_artifacts(capsys, q, suite, sha256):
    # exact-mode reports of the compressions and the checked spectra:
    # every residual is a literal zero, so the bytes do not depend on BLAS
    code, out, _ = run(capsys, "verify", "--q", q, "--suite", suite)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


_CONFIG_KEYS = {"q", "scalarMode", "precision", "normTruncation",
                "searchTruncation", "seed"}


def test_lipnorm_artifact(capsys):
    code, out, _ = run(capsys, "lipnorm", "--q", "1/2", "--expr", "A",
                       "--trunc", "80")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"schema", "kind", "config", "lowerBound",
                        "upperBound", "converged", "MUsed", "ladder",
                        "notes", "components"}
    assert set(obj["config"]) == _CONFIG_KEYS
    assert obj["lowerBound"] <= obj["upperBound"]


def test_theta_grid_is_not_an_option(capsys):
    code, out, err = run(capsys, "lipnorm", "--theta-grid", "3",
                         "--expr", "A")
    assert code == 1
    assert out == "" and err.startswith("error: ")


def test_usage_errors(capsys):
    code, _, err = run(capsys, "haar", "--q", "0", "--expr", "a")
    assert code == 1 and "q must lie" in err
    code, _, err = run(capsys, "expand", "--q", "1/2", "--expr", "a +* b")
    assert code == 1 and "line 1, col 4" in err
    code, _, err = run(capsys, "verify", "--q", "1/2")
    assert code == 1
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 1
    code, _, err = run(capsys, "nope")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("spectrum", "--N", "-1"),
    ("spectrum", "--N", "2", "--max-spin", "-1"),
    ("berezin", "--N", "-1", "--expr", "A"),
    ("lipnorm", "--trunc", "0", "--expr", "A"),
    ("lipnorm", "--trunc", "-3", "--expr", "B"),
    ("dist", "--N", "0", "--M", "2"),
    ("dist", "--N", "1", "--M", "0"),
])
def test_bad_input_writes_no_artifact(capsys, tmp_path, argv):
    out = tmp_path / "artifact.json"
    code, _, err = run(capsys, *argv, "--q", "1/2", "--out", str(out))
    assert code == 1
    assert err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "derivations"),
    ("expand", "--expr", "A"),
], ids=["verify", "expand"])
def test_negative_seed_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--q", "1/2", "--seed", "-1")
    assert code == 1 and out == ""
    assert err == "error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("gap", ["nan", "inf", "-5"])
def test_gap_that_decides_the_check_is_a_usage_error(capsys, tmp_path, gap):
    # `ratio > reference + gap` never holds at a NaN or infinite gap, and a
    # negative gap fails sound input; the gap is the fixed ESTIMATOR_GAP,
    # so no value given on the command line reaches probe-ratios-within-gap
    from qsphere.mkdist import ESTIMATOR_GAP
    assert 0 <= ESTIMATOR_GAP < float("inf")
    out = tmp_path / "artifact"
    code, stdout, err = run(capsys, "verify", "--q", "1/2", "--suite",
                            "theoremb", "--gap", gap, "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: unrecognized arguments: --gap {gap}")
    assert list(tmp_path.iterdir()) == []


# one valid call of every subcommand, and of verify's three forms
_CALLS = {
    "expand": ("expand", "--expr", "A"),
    "haar": ("haar", "--expr", "A"),
    "coproduct": ("coproduct", "--expr", "A"),
    "act": ("act", "--action", "delta1", "--expr", "A"),
    "berezin": ("berezin", "--N", "1", "--expr", "A"),
    "spectrum": ("spectrum", "--N", "1"),
    "lipnorm": ("lipnorm", "--expr", "A", "--trunc", "20"),
    "dist": ("dist", "--N", "1", "--M", "1"),
    "verify-suite": ("verify", "--suite", "hopf"),
    "verify-N": ("verify", "--N", "1", "--M", "1"),
    "list-suites": ("verify", "--list-suites"),
    "sweep": ("sweep", "--q-list", "1/2", "--N", "1", "--M-range", "1"),
}
# each option with the calls it belongs to; --gap belongs to none
_HOMES = [("format-csv", ("--format", "csv"), ("spectrum",)),
          ("format-json", ("--format", "json"), ("spectrum",)),
          ("cache-dir", ("--cache-dir", "CACHE"), ("sweep",)),
          ("timings", ("--timings",),
           ("verify-suite", "verify-N", "list-suites")),
          ("gap", ("--gap", "0.05"), ())]
_MISPLACED = [pytest.param(argv + option, id=f"{name}-{tag}")
              for tag, option, homes in _HOMES
              for name, argv in _CALLS.items() if name not in homes]


@pytest.mark.parametrize("argv", _MISPLACED + [pytest.param(
    ("haar", "--expr", "A", "--format", "csv", "--print-config"),
    id="haar-format-csv-print-config")])
def test_option_off_its_subcommand_is_a_usage_error(capsys, tmp_path, argv):
    # an output or deployment option lives on the one subcommand it
    # affects; elsewhere argparse refuses it before anything runs
    out, cache = tmp_path / "artifact", tmp_path / "cache"
    argv = [str(cache) if a == "CACHE" else a for a in argv]
    code, stdout, err = run(capsys, *argv, "--q", "1/2", "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith("error: unrecognized arguments: ")
    assert list(tmp_path.iterdir()) == []


# verify runs one of three forms: a suite, a level range or the suite
# list; --timings only reaches a suite report
_VERIFY_MISUSE = {
    "list-suites-timings": (("--list-suites", "--timings"),
                            "error: --timings needs --suite"),
    "N-timings": (("--N", "1..1", "--timings"),
                  "error: --timings needs --suite"),
    "suite-N": (("--suite", "hopf", "--N", "1..1"),
                "error: argument --N: not allowed with argument --suite"),
    "list-suites-suite": (("--list-suites", "--suite", "hopf"),
                          "error: argument --suite: not allowed with "
                          "argument --list-suites"),
    "N-list-suites": (("--N", "1..1", "--list-suites"),
                      "error: argument --list-suites: not allowed with "
                      "argument --N"),
}


@pytest.mark.parametrize("case", sorted(_VERIFY_MISUSE))
def test_verify_takes_one_form(capsys, tmp_path, case):
    argv, message = _VERIFY_MISUSE[case]
    out = tmp_path / "artifact"
    code, stdout, err = run(capsys, "verify", "--q", "1/2", *argv,
                            "--out", str(out))
    assert code == 1 and stdout == ""
    assert err == message + "\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_out_path_that_cannot_be_written(capsys, tmp_path, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" \
        else tmp_path
    code, stdout, err = run(capsys, "haar", "--q", "1/2", "--expr", "A",
                            "--out", str(out))
    assert code == 1
    assert stdout == "" and err.startswith("error: cannot write --out")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("haar", "--expr", "1e400*A"),
    ("haar", "--expr", "1e300*A*1e300"),
    ("haar", "--expr", "1e400*A", "--scalar-mode", "float"),
    ("lipnorm", "--expr", "1e400*A", "--trunc", "20"),
], ids=["haar", "haar-product", "haar-float", "lipnorm"])
def test_coefficient_beyond_float_range(capsys, argv):
    # the exact value is fine; its float view, which haar and lipnorm
    # need, is not
    code, out, err = run(capsys, *argv, "--q", "1/2")
    assert code == 1
    assert out == "" and err == "error: value beyond float range\n"


@pytest.mark.parametrize("argv", [
    ("dist", "--N", "1", "--M", "7"),
    ("spectrum", "--N", "1", "--max-spin", "8"),
    ("verify", "--N", "1..2", "--M", "7"),
], ids=["dist", "spectrum", "verify-N"])
def test_float_digits_that_run_out_are_an_input_error(capsys, argv):
    # at 50 digits the spin-7 Gram-Schmidt cancels below the field's
    # precision: one error line naming the option, exit 1
    code, out, err = run(capsys, *argv, "--q", "0.5", "--scalar-mode",
                         "float", "--precision", "50")
    assert code == 1 and out == ""
    assert err.startswith("error: Haar Gram-Schmidt degenerated")
    assert err.endswith("raise --precision\n") and err.count("\n") == 1


@pytest.mark.parametrize("factor", ["1e300", "1e-300"])
@pytest.mark.parametrize("expr", ["A", "B + Bs"])
def test_lipnorm_large_in_range_coefficient(capsys, expr, factor):
    # T^H T of 1e300 entries overflows, of 1e-300 entries underflows; the
    # matrices are scaled by an exact power of two and the seminorm, which
    # is homogeneous, scaled back.  B + Bs has a top at the character norm,
    # which is scaled with them
    values = []
    for text in (f"{factor}*({expr})", expr):
        code, out, _ = run(capsys, "lipnorm", "--q", "1/2", "--expr", text,
                           "--trunc", "20")
        assert code == 0
        values.append(json.loads(out)["lowerBound"])
    assert values[0] == pytest.approx(float(factor) * values[1], rel=1e-12)


def test_exact_subcommands_take_any_coefficient(capsys):
    code, out, _ = run(capsys, "expand", "--q", "1/2", "--expr", "1e400*A")
    assert code == 0
    assert json.loads(out)["text"] == f"{10**400}*b*bs"
    code, out, _ = run(capsys, "berezin", "--q", "1/2", "--N", "2",
                       "--expr", "1e400*A")
    assert code == 0
    assert json.loads(out)["text"].endswith("/17*b*bs")


def test_large_in_range_coefficient_artifact(capsys):
    # 8e299 is still a float: the same bytes as before the range check
    code, out, _ = run(capsys, "haar", "--q", "1/2", "--expr", "1e300*A")
    assert code == 0 and json.loads(out)["float"] == 8e299
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "04baf9a31733ac29b11323651e9e6227677836a5ce2387aa06b0168278a18b3e"


def test_dist_norm_truncation_below_shift(capsys, tmp_path):
    # a norm truncation of 2 is shorter than some derivation entries'
    # shifts; those entries compress to zero instead of failing
    out = tmp_path / "dist.json"
    code, _, err = run(capsys, "dist", "--q", "1/2", "--N", "1", "--M", "3",
                       "--trunc", "2", "--out", str(out))
    assert code == 0, err
    obj = json.loads(out.read_text())
    assert obj["kind"] == "distance" and obj["normTruncation"] == 2
    assert 0 < obj["certifiedValue"] <= obj["heuristicValue"]


def test_print_config(capsys):
    code, out, _ = run(capsys, "haar", "--q", "3/4", "--seed", "5",
                       "--expr", "a", "--print-config")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "config"
    assert set(obj["config"]) == _CONFIG_KEYS
    assert obj["config"]["q"] == "3/4"
    assert obj["config"]["seed"] == 5


def test_reproducible_bytes(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run(capsys, "spectrum", "--q", "1/2", "--N", "2",
                         "--out", str(p))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("args", [
    ("--q", "9/10", "--expr", "A*B+Bs*A"),
    ("--q", "9/10", "--expr", "3*A-B+Bs"),
    ("--q", "9/10", "--expr", "B+2*Bs"),
    ("--q", "99/100", "--expr", "B + Bs", "--trunc", "100"),
], ids=["A*B+Bs*A", "3*A-B+Bs", "B+2*Bs", "q99/100-B+Bs-trunc100"])
def test_bytes_independent_of_blas_threads(args):
    # seminorms that converge in Lanczos never reach threaded BLAS sums;
    # B + 2*Bs, whose clustered top Lanczos cannot resolve, is certified
    # at its character norm, and the lower rungs of the q = 99/100 ladder,
    # whose tops sit below it, are bracketed by banded Cholesky on 4 x 4
    # blocks.  Read off LAPACK's dense SVD, B + 2*Bs and the ladder each
    # differed in the last bits under one and two OpenBLAS threads
    src = str(Path(qsphere.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from qsphere.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "lipnorm", *args],
            env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--q", "1/2", "--suite", "hopf")
    assert code == 0
    obj = json.loads(out)
    assert obj["suite"] == "hopf"
    assert all(c["status"] != "fail" for c in obj["checks"])
    assert "seconds" not in obj


def test_verify_float_projections(capsys):
    # the level-5 fuzzy basis has squared norms near 1e-21 at q=1/2;
    # float mode must build it and report, not raise.  The suite's
    # checks compare residuals with exact zeros, so float residuals may
    # fail them (exit 2)
    code, out, err = run(capsys, "verify", "--q", "1/2", "--suite",
                         "projections", "--scalar-mode", "float")
    assert code in (0, 2)
    assert "Traceback" not in err
    obj = json.loads(out)
    assert obj["suite"] == "projections"
    assert len(obj["checks"]) == 3


def test_verify_reports_a_wrong_eigenvalue_as_a_failure(capsys, monkeypatch):
    # the coproduct oracle rejects a wrong spin-1 eigenvalue; the suite
    # must fail (exit 2), not crash
    from qsphere.berezin import Berezin
    original = Berezin._verify_layers

    def planted(self, N, lo, hi, vals):
        return original(self, N, lo, hi, {**vals, 1: vals[1] + vals[1]})

    monkeypatch.setattr(Berezin, "_verify_layers", planted)
    code, out, err = run(capsys, "verify", "--q", "1/2", "--suite", "berezin")
    assert code == 2
    assert "Traceback" not in err
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == \
        [("layer-consistency", "fail")]


def test_verify_fails_a_planted_identity_failure(capsys, monkeypatch):
    monkeypatch.setattr(suites, "leibniz_holds", lambda *args: False)
    code, out, _ = run(capsys, "verify", "--q", "1/2", "--suite",
                       "derivations")
    assert code == 2
    leibniz = ("twisted-leibniz-100pairs", "twisted-leibniz-deg4")
    assert [(c["name"], c["status"], c["residual"])
            for c in json.loads(out)["checks"]] == [
        (name, "fail", 1.0) if name in leibniz else (name, "pass", 0.0)
        for name in ("twisted-leibniz-100pairs", "twisted-trace-100pairs",
                     "twisted-leibniz-deg4", "k-multiplicative-deg4",
                     "star-rules-deg4", "haar-annihilation-deg4",
                     "k-haar-invariance-deg4", "grading-deg4",
                     "corep-conjugation-deg3")]


def test_verify_warns_on_an_unconverged_slice(capsys, monkeypatch):
    # convergence bookkeeping warns and keeps the exit code at 0
    from dataclasses import replace

    from qsphere.berezin import Berezin
    original = Berezin.slice_lip_check

    def unconverged(self, *args, **kwargs):
        return replace(original(self, *args, **kwargs), converged=False)

    monkeypatch.setattr(Berezin, "slice_lip_check", unconverged)
    code, out, _ = run(capsys, "verify", "--q", "1/2", "--suite", "slice")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert [(c["name"], c["status"]) for c in obj["checks"]] == [
        ("slice-contraction-20triples", "pass"),
        ("slice-estimates-converged", "warn")]


def test_verify_timings_split_the_suite_time(capsys):
    code, out, _ = run(capsys, "verify", "--q", "1/2", "--suite", "hopf",
                       "--timings")
    assert code == 0
    obj = json.loads(out)
    seconds = [c["seconds"] for c in obj["checks"]]
    assert len(seconds) == 5 and min(seconds) >= 0
    # each value is rounded to 1 ms, so allow half of that per value
    assert sum(seconds) <= obj["seconds"] + 5e-4 * (len(seconds) + 1)


@pytest.mark.parametrize("argv", [
    ("berezin", "--N", "1", "--expr", "a"),
    ("lipnorm", "--expr", "a", "--trunc", "20"),
])
def test_non_sphere_element_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--q", "1/2")
    assert code == 1 and out == ""
    assert ("element leaves the sphere subalgebra (right degree 1 at "
            "Monomial(a_exp=1, b_exp=0, bs_exp=0))") in err


@pytest.mark.parametrize("argv", [
    ("spectrum", "--N", "1", "--max-spin", "2"),
    ("berezin", "--N", "1", "--expr", "A"),
])
def test_spectrum_reports_a_wrong_eigenvalue_as_a_failure(capsys, monkeypatch,
                                                          argv):
    # the same planted spin-1 eigenvalue: spectrum and berezin report the
    # failed layer-consistency check and exit 2, as verify does
    from qsphere.berezin import Berezin
    original = Berezin._verify_layers

    def planted(self, N, lo, hi, vals):
        return original(self, N, lo, hi, {**vals, 1: vals[1] + vals[1]})

    monkeypatch.setattr(Berezin, "_verify_layers", planted)
    code, out, err = run(capsys, *argv, "--q", "1/2")
    assert code == 2
    assert "Traceback" not in err
    obj = json.loads(out)
    assert obj["passed"] is False and obj["suite"] == argv[0]
    assert [(c["name"], c["status"]) for c in obj["checks"]] == \
        [("layer-consistency", "fail")]


def test_dist_reports_the_span_optimum(capsys):
    code, out, _ = run(capsys, "dist", "--q", "1/2", "--N", "1", "--M", "4",
                       "--mode", "heuristic")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(0.575297, abs=1e-6)
    assert obj["source"] == "lp" and obj["degraded"] is False
    assert "trace" not in obj
    assert obj["certifiedValue"] == 1 / 21


def test_dist_beyond_the_solvable_lp_reports_the_probe_bound(capsys):
    # at M = 10 the crude bound of the linear program's witness is too
    # loose for it to certify: the certified bound and its witness are the
    # probe's, while the heuristic value is the linear program's
    code, out, _ = run(capsys, "dist", "--q", "1/2", "--N", "1", "--M",
                       "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == obj["certifiedValue"] == 1 / 21
    assert obj["heuristicValue"] == pytest.approx(0.631449, abs=1e-6)
    assert obj["degraded"] is True and obj["source"] == "samples"
    assert obj["witnessText"] == "-4/5 + b*bs"


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list-suites")
    assert code == 0
    names = out.split()
    assert "hopf" in names and "theoremb" in names


def test_trend_csv_single_level(capsys):
    code, out, _ = run(capsys, "verify", "--q", "1/2", "--N", "1..1",
                       "--M", "2", "--trunc", "80")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,dist_lb,max_probe_ratio,mean_lipSlack"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) > 0


def test_trend_exit_code_follows_every_theoremb_check(capsys, monkeypatch):
    # a negative approximant seminorm slack fails the theoremb suite's
    # approximant-lip-slack check, so the level trend must fail too
    row = {"N": 1, "dist_lb": 0.1, "dist_heuristic": 0.2,
           "max_probe_ratio": 0.05, "mean_lipSlack": -1.0,
           "min_lipSlack": -1.0, "probe_flagged": False, "degraded": False}
    monkeypatch.setattr(suites, "theoremb_rows", lambda cfg, levels: [row])
    code, out, _ = run(capsys, "verify", "--q", "1/2", "--N", "1..1")
    assert code == 2
    assert out.strip().split("\n")[1] == "1,0.1,0.05,-1.0"


def test_sweep_cache_resume(capsys, tmp_path):
    args = ("sweep", "--q-list", "1/2", "--N", "1..1", "--M-range", "1..1",
            "--trunc", "60", "--cache-dir", str(tmp_path))
    code, out1, _ = run(capsys, *args)
    assert code == 0
    cached = list(tmp_path.glob("sweep-*.json"))
    assert len(cached) == 1
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0].startswith("q,N,M,dist_lb")
    row = lines[1].split(",")
    assert row[0] == "1/2" and row[-1] == "ok"
    assert float(row[7]) == 1.0     # c0
    # a cell cut short (say by a killed run) reads as a cache miss: the
    # resumed sweep recomputes and overwrites it
    full = cached[0].read_text(encoding="utf-8")
    cached[0].write_text(full[: len(full) // 2], encoding="utf-8")
    code, out3, _ = run(capsys, *args)
    assert code == 0
    assert out3 == out1
    assert cached[0].read_text(encoding="utf-8") == full
    assert list(tmp_path.iterdir()) == cached


_SWEEP_ARGS = ("sweep", "--q-list", "1/2", "--N", "1..1", "--M-range", "1..1",
               "--trunc", "60")


@pytest.fixture(scope="module")
def sweep_cell(tmp_path_factory):
    """(cell file name, sweep output, cell text) of one fresh sweep."""
    cache = tmp_path_factory.mktemp("sweep")
    out = tmp_path_factory.mktemp("out")
    assert main([*_SWEEP_ARGS, "--cache-dir", str(cache),
                 "--out", str(out / "rows.csv")]) == 0
    (cell,) = cache.glob("sweep-*.json")
    return (cell.name, (out / "rows.csv").read_text(encoding="utf-8"),
            cell.read_text(encoding="utf-8"))


@pytest.mark.parametrize("damage", ["{}", "[1, 2]", "string-dist-lb"])
def test_sweep_recomputes_cells_that_parse_but_are_no_row(
        capsys, tmp_path, sweep_cell, damage):
    # JSON that is not a full row with numbers in the float columns is a
    # cache miss: the cell is recomputed and overwritten
    name, fresh, full = sweep_cell
    if damage == "string-dist-lb":
        damage = canonical_json(dict(json.loads(full), dist_lb="0.1"))
    (tmp_path / name).write_text(damage, encoding="utf-8")
    code, out, _ = run(capsys, *_SWEEP_ARGS, "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == fresh
    assert (tmp_path / name).read_text(encoding="utf-8") == full


def test_sweep_checks_every_q_before_the_first_cell(capsys, tmp_path):
    code, out, err = run(capsys, "sweep", "--q-list", "1/2,abc", "--N", "1",
                         "--M-range", "1", "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_sweep_cells_keyed_by_package_sources(tmp_path):
    # two copies of the package that differ by one comment share one
    # cache directory: each computes its own cell
    src = Path(qsphere.__file__).resolve().parent
    cache = tmp_path / "cache"
    outs = []
    for name, extra in (("one", ""), ("two", "# one more comment\n")):
        pkg = tmp_path / name / "qsphere"
        shutil.copytree(src, pkg,
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(pkg / "session.py", "a", encoding="utf-8") as fh:
            fh.write(extra)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(tmp_path / name))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from qsphere.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "sweep", "--q-list", "1/2", "--N", "1..1", "--M-range", "1..1",
             "--trunc", "60", "--cache-dir", str(cache)],
            env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(list(cache.glob("sweep-*.json"))) == 2


def test_sweep_ignores_cells_of_an_older_search(capsys, tmp_path):
    args = ("sweep", "--q-list", "1/2", "--N", "1..1", "--M-range", "1..1",
            "--trunc", "60", "--cache-dir", str(tmp_path))
    code, fresh, _ = run(capsys, *args)
    assert code == 0
    (cell,) = tmp_path.glob("sweep-*.json")
    cell.unlink()
    # the cell as a sweep from before the search version joined the key
    # would have cached it, under the key of the config alone
    code, out, _ = run(capsys, *args, "--print-config")
    cfg = json.loads(out)["config"]
    key_src = canonical_json({
        "cell": ["1/2", 1, 1],
        "config": cfg,
    })
    key = hashlib.sha256(key_src.encode()).hexdigest()[:24]
    old = tmp_path / f"sweep-{key}.json"
    stale = dict(q="1/2", N=1, M=1, dist_lb=0.125, dist_heuristic=0.25,
                 max_probe_ratio=0.0, mean_lipSlack=0.0, c0=1.0, c1=0.5,
                 c2=0.25, c3=0.125, status="ok")
    old.write_text(canonical_json(stale), encoding="utf-8")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == fresh
    assert cell.exists()
    assert json.loads(old.read_text(encoding="utf-8")) == stale
