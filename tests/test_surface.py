"""Every public name of the package has a reader outside the tests.

A public module-level function or class defined in a ``qeopt`` module must
be read by the code of ``src/qeopt`` or of a Python file under ``scripts/``
or ``bench/``. A name only the tests read is surface without a program use.
Click commands are registered by their decorator and are not checked.
A private module-level function must be read by the code of ``src/qeopt``.
A function behind a ``functools.cache`` wrapper is checked as a function.
An attribute that a package class stores on ``self``, or a field that a
package dataclass declares, must be read as an attribute by the code of
``src/qeopt``, ``scripts/`` or ``bench/``.
Reading means a name or an attribute in the code: a call or a reference.
A definition, an import, a docstring or a comment does not count, so a
helper whose last caller has gone is dead code.
A parameter with a default, on a ``def`` in ``src/qeopt``, must be set by a
call in the code of ``src/qeopt``, ``scripts/`` or ``bench/``: passed by
keyword, or positionally past the required arguments. A call with
``**mapping`` sets every keyword, one with ``*sequence`` every position, and
a call of a class sets the parameters of its ``__init__``. A default that
only the tests override is an option without a program use.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import click

import qeopt

ROOT = Path(__file__).resolve().parents[1]

# The paper's gamma-scaling experiment (acceptance criterion 11): no command
# runs it yet, and no other code does that job.
ALLOWED = {"optimize_gamma_scale", "fit_gamma_scaling"}

# Records read whole (``asdict`` writes the manifest file) or read only by the
# acceptance criteria: the gamma-scaling fit (11) and the minimizers (1).
ALLOWED_RECORDS = {"RunManifest", "ScalingFit"}
ALLOWED_ATTRIBUTES = {("OptimumRecord", "minimizers")}


def defined_here(module, obj):
    """Whether ``obj`` is a function (cached or not) or class that ``module`` defines."""
    if not inspect.isclass(obj):
        obj = inspect.unwrap(obj)
        if not inspect.isfunction(obj):
            return False
    return obj.__module__ == module.__name__


def module_objects():
    for info in pkgutil.iter_modules(qeopt.__path__):
        module = importlib.import_module(f"qeopt.{info.name}")
        for name, obj in vars(module).items():
            if defined_here(module, obj):
                yield name, obj


def public_names():
    for name, obj in module_objects():
        if not name.startswith("_") and not isinstance(obj, click.Command):
            yield name


def code_identifiers(files):
    """Every name and attribute that the code of ``files`` reads."""
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


PACKAGE_FILES = sorted((ROOT / "src" / "qeopt").glob("*.py"))
PROGRAM_FILES = (PACKAGE_FILES + sorted((ROOT / "scripts").rglob("*.py"))
                 + sorted((ROOT / "bench").rglob("*.py")))


def is_dataclass_def(node):
    return any(isinstance(dec, ast.Name) and dec.id == "dataclass"
               or isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "dataclass"
               for dec in node.decorator_list)


def stored_attributes():
    """(class, attribute) for every ``self.x`` store and dataclass field in the package."""
    for path in PACKAGE_FILES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            if is_dataclass_def(cls):
                for stmt in cls.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield cls.name, stmt.target.id
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    yield cls.name, node.attr


def loaded_attributes(files):
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr


def test_every_public_name_has_a_program_reader():
    orphans = sorted(set(public_names()) - ALLOWED - set(code_identifiers(PROGRAM_FILES)))
    assert not orphans, f"public names read only by tests: {orphans}"


def test_allowed_names_still_exist():
    assert ALLOWED <= set(public_names())
    stored = set(stored_attributes())
    assert ALLOWED_RECORDS <= {cls for cls, _ in stored}
    assert ALLOWED_ATTRIBUTES <= stored


def test_every_stored_attribute_has_a_program_reader():
    read = set(loaded_attributes(PROGRAM_FILES))
    orphans = sorted((cls, attr) for cls, attr in set(stored_attributes())
                     if cls not in ALLOWED_RECORDS and (cls, attr) not in ALLOWED_ATTRIBUTES
                     and attr not in read)
    assert not orphans, f"attributes no program code reads: {orphans}"


def test_every_private_function_has_a_caller_in_the_package():
    private = {name for name, obj in module_objects()
               if name.startswith("_") and not name.startswith("__") and not inspect.isclass(obj)}
    orphans = sorted(private - set(code_identifiers(PACKAGE_FILES)))
    assert not orphans, f"private functions no code in src/qeopt reads: {orphans}"


def test_cached_functions_are_checked():
    names = {name for name, _ in module_objects()}
    assert {"pair_product_table", "_pair_columns"} <= names


def defaulted_parameters():
    """(callee name, parameter, position) for every parameter with a default
    on a ``def`` in the package. A method is called by its own name, with the
    positions counted after ``self``, and ``__init__`` by its class's name;
    position is None for a keyword-only parameter."""
    for path in PACKAGE_FILES:
        tree = ast.parse(path.read_text())
        methods = {stmt: cls.name if stmt.name == "__init__" else stmt.name
                   for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for stmt in cls.body if isinstance(stmt, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            name, args = methods.get(node, node.name), node.args
            positional = args.posonlyargs + args.args
            skip = 1 if node in methods else 0
            for index in range(len(positional) - len(args.defaults), len(positional)):
                yield name, positional[index].arg, index - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def set_parameters(files):
    """(callee name, parameter or position) for what each call in ``files``
    sets; "**" and "*" stand for every keyword and every position."""
    for path in files:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for keyword in call.keywords:
                yield name, keyword.arg or "**"
            for index, arg in enumerate(call.args):
                yield name, "*" if isinstance(arg, ast.Starred) else index


def test_every_default_is_set_by_program_code():
    set_here = set(set_parameters(PROGRAM_FILES))
    orphans = sorted(
        (name, param) for name, param, position in defaulted_parameters()
        if not {(name, param), (name, "**")} & set_here
        and (position is None or not {(name, "*"), (name, position)} & set_here))
    assert not orphans, f"parameters only the tests set: {orphans}"
