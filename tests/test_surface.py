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
