"""Start-up loads only what a run uses.

The exact layers import neither numpy, scipy nor mpmath, so `import
qsphere`, the benchmark set-up and the exact subcommands must leave all
three out of sys.modules; `verify` loads numpy for its float checks, only
a run that builds a sparse matrix loads scipy, and only a float scalar
field loads mpmath.  Each case runs in a fresh interpreter, since this
test process has long since imported all three.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsphere

ROOT = Path(qsphere.__file__).resolve().parents[2]

# runs its body, then prints which of mpmath, numpy and scipy it left loaded
_PROBE = """
import contextlib, io, json, sys
{body}
print(json.dumps(sorted({{m.split(".")[0] for m in sys.modules}}
                        & {{"mpmath", "numpy", "scipy"}})))
"""

_CLI = """
from qsphere.cli import main
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
"""


def loaded(body: str) -> list:
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, str(ROOT / "bench"),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(body=body)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_loaded(*argvs) -> list:
    return loaded(_CLI.format(argvs=[list(a) for a in argvs]))


def test_import_and_setup_load_no_numerics():
    assert loaded("import qsphere") == []
    # the set-up every benchmark workload runs, timed as setup_s
    assert loaded("from setup_probe import contexts\n"
                  "from qsphere.session import SessionConfig\n"
                  "contexts(SessionConfig(q_text='9/10'))") == []


def test_exact_subcommands_load_no_numerics():
    assert cli_loaded(
        ("haar", "--q", "1/2", "--expr", "A^2"),
        ("expand", "--q", "1/2", "--expr", "b*a"),
        ("coproduct", "--q", "1/2", "--expr", "A"),
        ("act", "--q", "1/2", "--action", "delta1", "--expr", "A"),
        ("spectrum", "--q", "1/2", "--N", "4", "--max-spin", "5"),
        ("berezin", "--q", "1/2", "--N", "3", "--expr", "A"),
    ) == []


@pytest.mark.parametrize("argv,modules", [
    (("verify", "--q", "1/2", "--suite", "hopf"), ["numpy"]),
    (("lipnorm", "--q", "1/2", "--expr", "B + Bs", "--trunc", "60"),
     ["numpy", "scipy"]),
    (("berezin", "--q", "1/2", "--N", "2", "--expr", "A*B+Bs^2",
      "--scalar-mode", "float"), ["mpmath"]),
], ids=["verify-hopf", "lipnorm", "berezin-float"])
def test_numeric_subcommands_load_what_they_use(argv, modules):
    assert cli_loaded(argv) == modules
