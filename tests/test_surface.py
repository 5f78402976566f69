"""Every public name of the package has a reader outside the tests.

A public module-level function or class defined in a ``qeopt`` module must
be read by the code of ``src/qeopt`` or of a Python file under ``scripts/``
or ``bench/``. A name only the tests read is surface without a program use.
Click commands are registered by their decorator and are not checked.
A private module-level function must be read by the code of ``src/qeopt``.
A function behind a ``functools.cache`` wrapper is checked as a function.
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


def test_every_public_name_has_a_program_reader():
    files = PACKAGE_FILES + sorted((ROOT / "scripts").rglob("*.py"))
    files += sorted((ROOT / "bench").rglob("*.py"))
    orphans = sorted(set(public_names()) - ALLOWED - set(code_identifiers(files)))
    assert not orphans, f"public names read only by tests: {orphans}"


def test_allowed_names_still_exist():
    assert ALLOWED <= set(public_names())


def test_every_private_function_has_a_caller_in_the_package():
    private = {name for name, obj in module_objects()
               if name.startswith("_") and not name.startswith("__") and not inspect.isclass(obj)}
    orphans = sorted(private - set(code_identifiers(PACKAGE_FILES)))
    assert not orphans, f"private functions no code in src/qeopt reads: {orphans}"


def test_cached_functions_are_checked():
    names = {name for name, _ in module_objects()}
    assert {"pair_product_table", "_pair_columns"} <= names
