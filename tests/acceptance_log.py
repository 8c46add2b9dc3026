"""Acceptance summary lines, collected by test_acceptance.py and printed
by the terminal-summary hook in conftest.py.

A plain module rather than conftest itself, so the import resolves to
this file whichever conftest.py pytest put first on sys.path.
"""

ACCEPTANCE: list = []


def record_acceptance(label: str, passed: bool, seconds: float,
                      detail: str = "") -> None:
    ACCEPTANCE.append((label, passed, seconds, detail))
