"""Shared fixtures and the acceptance summary hook.

Algebra construction at exact q is cheap but the product, coproduct and
Haar caches live per instance, so fixtures are session scoped.
"""

import numpy as np
import pytest

from acceptance_log import ACCEPTANCE
from qsphere import GnsContext, UqActions, make_algebra
from qsphere.berezin import Berezin
from qsphere.qhopf import Algebra, AlgebraElement
from qsphere.session import SessionConfig
from qsphere.specnorm import PaddedRows
from qsphere.suites import hopf_suite


@pytest.fixture(scope="session")
def alg_half():
    return make_algebra(1, 2)


@pytest.fixture(scope="session")
def alg_one():
    return make_algebra(1, 1)


@pytest.fixture(scope="session")
def actions_half(alg_half):
    return UqActions(alg_half)


@pytest.fixture(scope="session")
def gns_half(alg_half, actions_half):
    return GnsContext(alg_half, actions_half)


@pytest.fixture(scope="session")
def ber_half(gns_half):
    return Berezin(gns_half)


@pytest.fixture(scope="session")
def cfg_half():
    return SessionConfig(q_text="1/2")


@pytest.fixture
def no_densify(monkeypatch):
    """Make forming a dense matrix from a sparse one, or a dense SVD,
    raise for the rest of the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("densified a sparse input")

    for owner, name in ((PaddedRows, "toarray"), (np.linalg, "svd")):
        monkeypatch.setattr(owner, name, refuse)


@pytest.fixture
def antipode_verdicts(monkeypatch):
    """(true, planted) verdicts of the hopf suite's antipode-axiom-deg5
    check for a config: with the true antipode, then with S(b) = -q b
    planted in place of -q^-1 b."""
    true_antipode = Algebra.antipode

    def planted(alg, x):
        # S(b) is q^2 times too big, so S(a^k b^l b*^m) is q^(2l) times
        q_power = alg.field.q_power
        return true_antipode(alg, AlgebraElement(alg, {
            m: c * q_power(2 * m.b_exp) for m, c in x.terms.items()}))

    def verdict(cfg):
        return next(ok for name, ok, _ in hopf_suite(cfg)
                    if name == "antipode-axiom-deg5")

    def run(cfg):
        honest = verdict(cfg)
        monkeypatch.setattr(Algebra, "antipode", planted)
        wrong = verdict(cfg)
        monkeypatch.undo()
        return honest, wrong

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for label, passed, seconds, detail in ACCEPTANCE:
        verdict = "PASS" if passed else "FAIL"
        line = f"{verdict}  {label}  ({seconds:.1f}s)"
        if detail:
            line += f"  {detail}"
        tr.write_line(line)
