"""Every function and class in src/qsphere has a caller in the program.

A definition that only tests name is API the program never runs.  This
test parses each module of src/qsphere with ast, collects every
function, method and class it defines, and counts the whole-word
occurrences of each name in the sources of src/qsphere and bench/: a
name must occur more often than it is defined.  Dunder methods are
called by the interpreter rather than by name and are left out; no
other name is exempt.  Mentions in comments and docstrings count, so
the check can miss dead code but never flags a name the program spells
out.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import qsphere

ROOT = Path(qsphere.__file__).resolve().parents[2]


def test_every_definition_is_named_outside_its_definition():
    src = sorted((ROOT / "src" / "qsphere").glob("*.py"))
    bench = sorted((ROOT / "bench").rglob("*.py"))
    words = Counter(re.findall(r"\w+", "\n".join(
        p.read_text(encoding="utf-8") for p in src + bench)))
    defined: dict = {}
    for path in src:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, []).append(
                    f"{path.name}:{node.lineno}")
    assert len(defined) > 100
    unused = {name: where for name, where in defined.items()
              if not (name.startswith("__") and name.endswith("__"))
              and words[name] <= len(where)}
    assert not unused, f"defined but never named: {unused}"
