"""Every package function, class, method and module-level name (constant or
alias) has a user outside the tests, except an explicit allowlist of
test-only names.

The scan is by name: a definition counts as used when its name appears as
an identifier anywhere in ``src/starcover`` outside its own body (and outside
``__init__.py``, which only re-exports), in ``scripts/`` or in ``bench/``.
Dotted identifier strings count too, for the benchmark's trace table names
its targets as strings (``"PolydiffCarrier.bracket"``).  Dunder names are
used by the language and are skipped."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "starcover"

# Names whose only callers are the tests.  Give one a caller or delete it,
# and remove it here in the same change.
TEST_ONLY = {
    # cechnerve
    "pull_sections", "identity_refinement",
    # descent
    "minimal_conditions", "invert_transformation",
    # dgla
    "symmetry_defect", "linfty_apply",
    # params
    "base_change",
    # polyvec
    "inner_gauge_poisson",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _definitions(tree: ast.Module):
    """(name, node) of the top-level functions, classes and assigned names
    and of the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item


def _references(tree: ast.AST, strings: bool):
    """(name, node) of every identifier use; with ``strings``, also the parts
    of each dotted identifier string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node


def uncalled_names() -> set:
    outside = set()
    for folder in ("scripts", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            outside |= {name for name, _ in _references(tree, strings=True)}
    modules = [
        ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    ]
    uses: dict = {}  # name -> ids of the nodes that use it in the package
    for tree in modules:
        for name, node in _references(tree, strings=False):
            uses.setdefault(name, set()).add(id(node))
    out = set()
    for tree in modules:
        for name, definition in _definitions(tree):
            if name.startswith("__") and name.endswith("__") or name in outside:
                continue
            if not uses.get(name, set()) - {id(n) for n in ast.walk(definition)}:
                out.add(name)
    return out


def test_only_the_allowlisted_names_lack_a_caller():
    found = uncalled_names()
    assert not found - TEST_ONLY, f"names with no caller outside the tests: {sorted(found - TEST_ONLY)}"
    assert not TEST_ONLY - found, (
        f"allowlisted names that gained a caller or were deleted: {sorted(TEST_ONLY - found)}"
    )


# Where the basis multiplication of the parameter algebra may be read: the
# algebra itself, whose ``extend`` is the one R-multilinear loop, and the two
# product tables of the associativity oracle, which expand terms of
# coefficients rather than products of parts.
MUL_INDEX_READERS = {
    ("params.py", "ParamAlgebra"),
    ("polydiff.py", "_MonomialProducts"),
    ("polydiff.py", "_LocalizedProducts"),
}


def test_only_the_parameter_algebra_and_the_oracle_read_mul_index():
    found = set()
    paths = sorted(PACKAGE.glob("*.py"))
    paths += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for name, _ in _references(top, strings=False):
                if name == "mul_index":
                    found.add((path.name, getattr(top, "name", None)))
    assert found - MUL_INDEX_READERS == set(), (
        f"mul_index read outside ParamAlgebra.extend and the oracle's tables: {sorted(found)}"
    )


# The flavour and carrier-kind names, and the descent-datum kind names.
# Each chart-carrier class carries its own (``PolyvecCarrier.flavor``,
# ``.kind``), and so does each descent-datum class (``MultDescentDatum.kind``);
# ``cechnerve.carrier_of_flavor``/``carrier_of_kind`` and
# ``descent.datum_of_kind`` are the one tables from a name to its class, and
# what differs hangs off the class.  A comparison with one of these names, or
# a dict or set literal that holds one, is a second table.
FLAVOR_NAMES = {"associative", "poisson", "polyvec", "polydiff"}
DATUM_KIND_NAMES = {"mdd", "add"}


def flavor_name_decisions(names) -> list:
    """(module, line) of every ``==``/``!=``/``in``/``not in`` comparison
    and every dict or set literal in the package with one of ``names`` as a
    string constant."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops
            ):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.Dict):
                operands = [k for k in node.keys if k is not None] + node.values
            elif isinstance(node, ast.Set):
                operands = node.elts
            else:
                continue
            if any(
                isinstance(c, ast.Constant) and c.value in names
                for operand in operands
                for c in ast.walk(operand)
            ):
                found.append((path.name, node.lineno))
    return found


@pytest.mark.parametrize("names", [FLAVOR_NAMES, DATUM_KIND_NAMES], ids=["flavors", "datum-kinds"])
def test_no_module_decides_the_flavour_by_name(names):
    found = flavor_name_decisions(names)
    assert not found, f"flavour or kind name compared or tabled outside its classes: {found}"


# The functions of descent.py that take a nerve and a flavour: the public
# constructors over a bare nerve (a multiplicative datum from its components
# among them) and ``LayerWindow``.  Everything else takes a datum and reads
# its components through it (``DescentDatum.carrier``, ``.move``, ``.at``).
NERVE_AND_FLAVOR = {
    "face_carrier", "identity_transformation", "invert_transformation",
    "MultDescentDatum.from_components", "LayerWindow.__init__",
}


def nerve_and_flavor_takers() -> set:
    """Qualified names of the functions and methods in descent.py, nested
    ones included, with both a ``nerve`` and a ``flavor`` parameter."""
    found = set()

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                if {"nerve", "flavor"} <= {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}:
                    found.add(prefix + node.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse((PACKAGE / "descent.py").read_text(encoding="utf-8")).body, "")
    return found


def test_descent_threads_the_datum_not_its_nerve_and_flavor():
    found = nerve_and_flavor_takers()
    assert not found - NERVE_AND_FLAVOR, (
        f"take a nerve and a flavour where a datum would do: {sorted(found - NERVE_AND_FLAVOR)}"
    )
    assert not NERVE_AND_FLAVOR - found, (
        f"allowlisted names that no longer take both: {sorted(NERVE_AND_FLAVOR - found)}"
    )


# The two structures a Maurer-Cartan element induces share one base,
# ``dgla.InducedStructure``, and what differs between them hangs off the
# class (``op``, ``bracket``); so do the two kinds of descent datum, over
# ``descent.DescentDatum`` (``kind``, ``sections``, ``components``,
# ``from_components``).  A test of a value against one of these classes is
# a second place that decides the flavour or the kind.
STRUCTURES = {"PoissonStructure", "StarProduct"}
DATUM_KINDS = {"MultDescentDatum", "AddDescentDatum"}


def structure_class_tests(classes) -> list:
    """(module, top-level name) of every ``isinstance``/``issubclass`` call,
    ``is``/``is not``/``==``/``!=`` comparison and ``case`` class pattern in
    the package that names one of ``classes``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
                    operands = node.args[1:]
                elif isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops
                ):
                    operands = [node.left, *node.comparators]
                elif isinstance(node, ast.MatchClass):
                    operands = [node.cls]
                else:
                    continue
                if any(name in classes for operand in operands for name, _ in _references(operand, strings=False)):
                    found.append((path.name, getattr(top, "name", None)))
    return found


@pytest.mark.parametrize("classes", [STRUCTURES, DATUM_KINDS], ids=["structures", "datum-kinds"])
def test_no_module_tests_a_value_against_an_induced_structure_class(classes):
    found = structure_class_tests(classes)
    assert not found, f"flavour or kind decided by a class test: {found}"


# The layer solves of descent.py build their systems in one place: the rows
# of a defect and the columns of each unknown's effects are assembled by
# ``_assemble``, and the solvers derive only the effects.
def exact_system_callers() -> set:
    """Names of the top-level functions and methods in descent.py that call
    ``ExactSystem``."""
    found = set()
    for top in ast.parse((PACKAGE / "descent.py").read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExactSystem":
                found.add(getattr(top, "name", None))
    return found


def test_only_assemble_builds_a_layer_system():
    assert exact_system_callers() == {"_assemble"}
