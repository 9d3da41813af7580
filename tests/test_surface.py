"""Every exported class and function is reached by the pipeline or the docs.

A name in ``horseshoe.__all__`` counts as used when the code of some
``src/horseshoe`` module other than ``__init__.py`` refers to it outside
its own definition, when ``README.md`` names it, or when
``tests/test_acceptance.py`` imports or calls it.  Code references are read
from the syntax tree, so a mention in a docstring or comment does not count.
"""

import ast
import inspect
import re
from pathlib import Path

import horseshoe

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "horseshoe"


def _code_names(path):
    """Identifiers a module refers to, its own class and def names excluded."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _exported_callables():
    return sorted(name for name in horseshoe.__all__
                  if inspect.isclass(getattr(horseshoe, name))
                  or inspect.isfunction(getattr(horseshoe, name)))


def test_every_export_has_a_user():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _code_names(path)
    used |= _code_names(ROOT / "tests" / "test_acceptance.py")
    readme = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                            (ROOT / "README.md").read_text()))
    exported = _exported_callables()
    assert len(exported) > 40
    unused = [name for name in exported if name not in used | readme]
    assert not unused, f"exported but used by nothing: {unused}"


def test_definitions_do_not_count_as_use(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text('def lonely():\n    """lonely is mentioned here."""\n'
                      "\n\nclass Alone:\n    pass\n\n\nlonely_too = Alone\n")
    names = _code_names(module)
    assert "lonely" not in names and "Alone" in names
