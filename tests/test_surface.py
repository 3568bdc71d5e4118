"""The public surface is what the program uses.

Every name ``markovlab`` exports must be referenced by the program
itself: in ``src/`` outside its own top-level definition, in ``demos/``
or in ``perfbench/`` (whose span table names functions as strings).  A
name only tests call belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

import markovlab

PACKAGE = Path(markovlab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def _exports() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _defined_names(top) -> set:
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _program_references() -> Counter:
    """Uses of each identifier or exact string, outside the definition of that name."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = Counter()
    for path in files:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined_names(top)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if name not in own:
                    used[name] += 1
    return used


def test_every_export_is_used_by_the_program():
    exports = _exports()
    assert len(exports) > 40
    used = _program_references()
    assert [name for name in exports if not used[name]] == []
