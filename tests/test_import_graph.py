"""Start-up loads only what a run uses.

The exact layers import neither numpy, scipy nor mpmath, so `import
qsphere`, the benchmark set-up and the exact subcommands must leave all
three out of sys.modules; the numerical layers load numpy alone, sparse
matrices included, and only a float scalar field loads mpmath.  No run
loads scipy.  The same rule holds for the standard library's heavier
modules: `import qsphere` and the set-up load none of `dataclasses` (and
with it `inspect`), `hashlib` or `csv`, and the exact subcommands `haar`,
`expand`, `coproduct`, `act`, `spectrum` and `berezin` none of
`dataclasses`, `inspect` or `hashlib` (`csv` only under `--format csv`);
`hashlib` is for `sweep`'s cell keys alone.  Each case runs in a fresh
interpreter, since this test process has long since imported all of
them, and counts only the modules its body adds to those the interpreter
had loaded after `site`, so an environment's `.pth` imports do not count.
"""

import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import qsphere

ROOT = Path(qsphere.__file__).resolve().parents[2]

NUMERICS = {"mpmath", "numpy", "scipy"}
STDLIB = {"dataclasses", "inspect", "hashlib", "csv"}

# runs its body, then prints the top-level names of the modules it added
_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io, json
{body}
added = set(sys.modules) - before
print(json.dumps(sorted({{m.split(".")[0] for m in added}})))
"""

_CLI = """
from qsphere.cli import main
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
"""


@cache
def loaded(body: str) -> frozenset:
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, str(ROOT / "bench"),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(body=body)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return frozenset(json.loads(proc.stdout.strip().splitlines()[-1]))


def cli_loaded(*argvs) -> frozenset:
    return loaded(_CLI.format(argvs=[list(a) for a in argvs]))


IMPORT = "import qsphere"
# the set-up every benchmark workload runs, timed as setup_s
SETUP = ("from setup_probe import contexts\n"
         "from qsphere.session import SessionConfig\n"
         "contexts(SessionConfig(q_text='9/10'))")
EXACT = (
    ("haar", "--q", "1/2", "--expr", "A^2"),
    ("expand", "--q", "1/2", "--expr", "b*a"),
    ("coproduct", "--q", "1/2", "--expr", "A"),
    ("act", "--q", "1/2", "--action", "delta1", "--expr", "A"),
    ("spectrum", "--q", "1/2", "--N", "4", "--max-spin", "5"),
    ("berezin", "--q", "1/2", "--N", "3", "--expr", "A"),
)


def test_import_and_setup_load_no_numerics():
    assert not loaded(IMPORT) & NUMERICS
    assert not loaded(SETUP) & NUMERICS


def test_import_and_setup_load_no_dataclasses_hashlib_or_csv():
    assert not loaded(IMPORT) & STDLIB
    assert not loaded(SETUP) & STDLIB


def test_exact_subcommands_load_no_numerics():
    assert not cli_loaded(*EXACT) & NUMERICS


def test_exact_subcommands_load_no_dataclasses_or_hashlib():
    assert not cli_loaded(*EXACT) & {"dataclasses", "inspect", "hashlib"}


@pytest.mark.parametrize("argv,modules", [
    (("verify", "--q", "1/2", "--suite", "hopf"), ["numpy"]),
    (("lipnorm", "--q", "1/2", "--expr", "B + Bs", "--trunc", "60"),
     ["numpy"]),
    (("dist", "--q", "1/2", "--N", "1", "--M", "4"), ["numpy"]),
    (("verify", "--q", "1/2", "--suite", "normoracles"), ["numpy"]),
    (("berezin", "--q", "1/2", "--N", "2", "--expr", "A*B+Bs^2",
      "--scalar-mode", "float"), ["mpmath"]),
], ids=["verify-hopf", "lipnorm", "dist", "verify-normoracles",
        "berezin-float"])
def test_numeric_subcommands_load_what_they_use(argv, modules):
    assert sorted(cli_loaded(argv) & NUMERICS) == modules


def test_benchmark_rounds_load_no_scipy():
    # a whole round of every benchmark workload runs on numpy alone
    assert "scipy" not in loaded(
        "import workloads\n"
        "for cls in workloads.WORKLOADS.values():\n"
        "    cls(1).run_round()")
