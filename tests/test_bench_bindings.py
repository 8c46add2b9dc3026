"""The benchmark's span tracer binds to qsphere by name.

bench/tracer.py wraps every function and method listed in its SPANS
table; a rename in src/ would make `bench/run.py --trace 1` fail with a
KeyError.  These tests install the tracer against the current package,
check that every target resolves and records spans, and that uninstall
puts every original back.
"""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import tracer  # noqa: E402

from qsphere import cli  # noqa: E402,F401  (the tracer wraps cli.main)
from qsphere.session import SessionConfig  # noqa: E402


@pytest.mark.parametrize("name,modname,path", tracer.SPANS,
                         ids=[s[0] for s in tracer.SPANS])
def test_span_target_resolves(name, modname, path):
    mod = importlib.import_module("qsphere." + modname)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, path))


def test_install_traces_and_uninstall_restores():
    tr = tracer.Tracer()
    try:
        tr.install()
        patched = list(tr._patches)
        wrapped = {attr for _owner, attr, _orig in patched}
        for _name, _mod, path in tracer.SPANS:
            assert path.split(".")[-1] in wrapped
        alg = SessionConfig(q_text="1/2").build_algebra()
        alg.haar(alg.sphere_A)
        names = {span[0] for span in tr.spans}
        assert {"session.build_algebra", "qhopf.haar_table"} <= names
        metrics = tr.metrics()
        assert metrics["qhopf.haar_table.s"][0] > 0
    finally:
        tr.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
