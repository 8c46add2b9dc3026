"""Every definition and record field in src/qsphere is used by the program.

A definition that only tests name is API the program never runs.  This
test parses each module of src/qsphere with ast, collects every
function, method and class it defines, and counts the whole-word
occurrences of each name in the sources of src/qsphere and bench/: a
name must occur more often than it is defined.  Dunder methods are
called by the interpreter rather than by name and are left out; no
other name is exempt.  Mentions in comments and docstrings count, so
the check can miss dead code but never flags a name the program spells
out.

The fields of every dataclass and NamedTuple get the same treatment: a
field must be read as `.name` somewhere in those sources.  Any attribute
of that spelling counts, an assignment too, so again the check can miss
a dead field but never flags a read one.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import qsphere

ROOT = Path(qsphere.__file__).resolve().parents[2]
SRC = sorted((ROOT / "src" / "qsphere").glob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))
TEXT = "\n".join(p.read_text(encoding="utf-8") for p in SRC + BENCH)

# fields that nothing in the program reads, kept on purpose
UNREAD_FIELDS = {
    # the charge-0 LP's optimality certificate, rows^T dual = eta with
    # sum |dual| = eta . coords; tests/test_mkdist.py checks it
    "ChargeZeroLP.eta", "ChargeZeroLP.dual",
}


def _is_record(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return any(isinstance(b, ast.Name) and b.id == "NamedTuple"
               for b in node.bases)


def test_every_definition_is_named_outside_its_definition():
    words = Counter(re.findall(r"\w+", TEXT))
    defined: dict = {}
    for path in SRC:
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


def test_every_record_field_is_read():
    reads = Counter(re.findall(r"\.(\w+)", TEXT))
    fields = {}
    for path in SRC:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_record(node):
                for stmt in node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        fields[f"{node.name}.{stmt.target.id}"] = (
                            f"{path.name}:{stmt.lineno}")
    assert len(fields) > 40
    assert UNREAD_FIELDS <= fields.keys()
    unread = {key: where for key, where in fields.items()
              if key not in UNREAD_FIELDS and not reads[key.split(".")[1]]}
    assert not unread, f"record fields never read: {unread}"
    # an allowlisted field that the program starts reading leaves the list
    assert not [key for key in UNREAD_FIELDS if reads[key.split(".")[1]]]
