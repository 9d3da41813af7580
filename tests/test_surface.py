"""Every class and function, exported or not, and every run knob, has a user.

A name in ``horseshoe.__all__`` counts as used when the code of some
``src/horseshoe`` module other than ``__init__.py`` refers to it outside
its own definition, when ``README.md`` names it, or when
``tests/test_acceptance.py`` imports or calls it.  Code references are read
from the syntax tree, so a mention in a docstring or comment does not count.
Every module-level function and class of ``src/horseshoe`` needs a user by
the same rule, so a private helper that nothing calls any more fails too.
Every error class but the base class needs a ``raise`` site in the package,
as an import alone would count as a use.

Only ``cli.py``, ``cache.py`` and ``figures.py`` open files for writing,
so every CSV and JSON table of the pipeline is formatted in one place.

A ``RunConfig`` field counts as used when a benchmark workload sets it
(``perfbench/run.py``), the README shows its flag, or an acceptance check
passes it to ``RunConfig``.
"""

import argparse
import ast
import dataclasses
import inspect
import re
from pathlib import Path

import horseshoe
from horseshoe.cli import RunConfig, make_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "horseshoe"


def _code_names(path):
    """Identifiers a module refers to, its own class and def names excluded."""
    return _names_in(ast.parse(path.read_text()))


def _names_in(tree):
    names = set()
    for node in ast.walk(tree):
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


def _unused_definitions(paths, outside_names):
    """``module.name`` of each module-level def or class in ``paths`` that no
    other top-level statement of those modules refers to and that is not in
    ``outside_names``; a reference inside the definition itself, as in a
    recursive call, does not count."""
    bodies = {path: ast.parse(path.read_text()).body for path in paths}
    uses = [(path, k, _names_in(stmt))
            for path, body in bodies.items() for k, stmt in enumerate(body)]
    unused = []
    for path, body in bodies.items():
        for k, stmt in enumerate(body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not (
                    stmt.name in outside_names
                    or any(stmt.name in names for p, j, names in uses
                           if (p, j) != (path, k))):
                unused.append(f"{path.stem}.{stmt.name}")
    return unused


def test_every_definition_has_a_user():
    paths = sorted(path for path in PACKAGE.glob("*.py")
                   if path.name != "__init__.py")
    outside = _code_names(ROOT / "tests" / "test_acceptance.py")
    outside |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                              (ROOT / "README.md").read_text()))
    assert len(paths) > 5
    unused = _unused_definitions(paths, outside)
    assert not unused, f"defined but used by nothing: {unused}"


def _raised_names(paths):
    """Names that a ``raise`` statement of ``paths`` raises, called or not."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_is_raised():
    """An error class that only an import names is dead; each class of
    ``errors.py`` but the base class needs a raise site in the package."""
    errors = [stmt.name for stmt in ast.parse(
        (PACKAGE / "errors.py").read_text()).body
        if isinstance(stmt, ast.ClassDef) and stmt.name != "HorseshoeError"]
    assert len(errors) > 5
    raised = _raised_names(PACKAGE.glob("*.py"))
    unraised = [name for name in errors if name not in raised]
    assert not unraised, f"error classes raised nowhere: {unraised}"


def test_imported_error_is_not_raised(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from errors import Quiet, Loud, Bare\n\n\n"
                      "def run(x):\n    if x:\n        raise Loud('no')\n"
                      "    raise Bare\n\n\ntry:\n    run(0)\n"
                      "except Quiet:\n    raise\n")
    assert _raised_names([module]) == {"Loud", "Bare"}


def test_self_reference_does_not_count_as_use(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def spin(n):\n    return spin(n - 1) if n else 0\n\n\n"
                 "def _helper():\n    return 1\n\n\n"
                 "class Shown:\n    pass\n")
    b.write_text("from a import _helper\n\n\ndef run():\n    return _helper()\n")
    assert _unused_definitions([a, b], {"run"}) == ["a.spin", "a.Shown"]
    assert _unused_definitions([a, b], {"run", "Shown"}) == ["a.spin"]


def _flag(field):
    return "--out" if field == "out_dir" else "--" + field.replace("_", "-")


def test_every_config_field_has_one_flag():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    sub = next(a for a in make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        options = {a.dest: a.option_strings for a in parser._actions
                   if a.dest not in ("help", "config")}
        assert set(options) == fields, command
        for name, strings in options.items():
            assert strings == [_flag(name)], (command, name)


def _set_names(path, call=None):
    """Dict keys and call keywords a file writes (keywords of ``call`` only)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Dict):
            names.update(k.value for k in node.keys
                         if isinstance(k, ast.Constant) and isinstance(k.value, str))
        elif isinstance(node, ast.Call) and (
                call is None or getattr(node.func, "id", None) == call):
            names.update(k.arg for k in node.keywords if k.arg)
    return names


def test_every_config_field_is_set_somewhere():
    used = _set_names(ROOT / "perfbench" / "run.py", call="dict")
    used |= _set_names(ROOT / "tests" / "test_acceptance.py", call="RunConfig")
    flags = set(re.findall(r"--[a-z][a-z0-9-]*", (ROOT / "README.md").read_text()))
    unused = [f.name for f in dataclasses.fields(RunConfig)
              if f.name not in used and _flag(f.name) not in flags]
    assert not unused, f"RunConfig fields nothing sets: {unused}"


def _file_writes(path):
    """Line numbers of the calls in ``path`` that open a file for writing:
    ``open`` with a mode holding w, a, x or +, ``write_text`` and
    ``write_bytes``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        if func in ("write_text", "write_bytes") or func == "open" and any(
                isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+")
                for m in modes):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_writers_write_files():
    writers = {"cli.py", "cache.py", "figures.py"}
    found = {path.name: _file_writes(path) for path in PACKAGE.glob("*.py")}
    assert all(found[name] for name in writers)
    others = {name: lines for name, lines in found.items()
              if lines and name not in writers}
    assert not others, f"files written outside {sorted(writers)}: {others}"


def test_file_writes_are_found(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from pathlib import Path\n\n\n"
                      "def run(p):\n    open(p).read()\n"
                      "    open(p, 'rb').read()\n"
                      "    with open(p, 'w') as fh:\n        fh.write('')\n"
                      "    open(p, mode='a+').close()\n"
                      "    Path(p).write_text('')\n"
                      "    Path(p).write_bytes(b'')\n")
    assert _file_writes(module) == [7, 9, 10, 11]
