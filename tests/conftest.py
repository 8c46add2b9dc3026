"""Shared fixtures and the acceptance summary hook.

Algebra construction at exact q is cheap but the product, coproduct and
Haar caches live per instance, so fixtures are session scoped.
"""

import pytest

from acceptance_log import ACCEPTANCE
from qsphere import GnsContext, UqActions, make_algebra
from qsphere.berezin import Berezin
from qsphere.session import SessionConfig


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
