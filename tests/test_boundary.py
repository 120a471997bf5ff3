"""Production apart from the oracles, checked on the source.

The production modules (the package root, gint, arith, farey, region and
moment) import none of oracles, verify and cli.  oracles reads from
production exactly the names declared in SHARED, and each oracle's
docstring names those it reads.  Every oracle is compared against: a
verify check or a test uses it, or it serves an oracle that one does.
"""

import ast
from pathlib import Path

import pytest

import fordspheres

PACKAGE = Path(fordspheres.__file__).resolve().parent
PRODUCTION = ("gint", "arith", "farey", "region", "moment")
CHECKING = {"oracles", "verify", "cli"}

# every production name that oracles.py uses: a `from .m import n`, or an
# `m.n` read on a production module m
SHARED = {
    "arith.ZETA_I_2",
    "arith._as_canonical",
    "arith.canonical_cells",
    "arith.divisors",
    "arith.get_sieve",
    "arith.mu_i",
    "arith.norm_coefficients",
    "farey.GFraction",
    "farey._UNIT_INV",
    "farey._fractions",
    "farey.consecutive_denominator_conditions",
    "farey.gs_arrays",
    "farey.is_adjacent",
    "farey.is_consecutive",
    "gint.DomainError",
    "gint.GInt",
    "gint.ONE",
    "gint.UNITS",
    "gint.ZERO",
    "gint.canonical",
    "gint.exact_div",
    "gint.factor",
    "gint.is_coprime",
    "gint.norm",
    "gint.xgcd",
    "moment._exact_sum",
    "moment.consecutive_partner_counts",
    "region.BLOCK_ELEMENTS",
    "region.OmegaSpec",
    "region._bound_tables",
    "region.flat_blocks",
    "region.omega_area",
    "region.omega_contains",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _source(node: ast.ImportFrom):
    """The package module a from-import reads: '' for the package itself,
    None for a module outside it."""
    if node.level:
        return node.module or ""
    if node.module == "fordspheres":
        return ""
    if node.module.startswith("fordspheres."):
        return node.module.removeprefix("fordspheres.")
    return None


def _imported(tree: ast.AST) -> set:
    """The package modules a tree imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("fordspheres.")}
        elif isinstance(node, ast.ImportFrom) and _source(node) is not None:
            found |= {a.name for a in node.names} if _source(node) == "" else {_source(node).split(".")[0]}
    return found


def _shared(tree: ast.AST, modules: dict) -> set:
    """The production names a tree uses: `from .m import n` and `m.n` on a
    production module, modules mapping the names it is bound to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _source(node) in PRODUCTION:
            names |= {f"{_source(node)}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


def _oracles():
    """The parsed oracles.py and the names its production modules are bound to."""
    tree = _tree(PACKAGE / "oracles.py")
    modules = {
        a.asname or a.name: a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and _source(node) == ""
        for a in node.names
        if a.name in PRODUCTION
    }
    return tree, modules


def _names(tree: ast.AST) -> set:
    """Every name a tree reads, as a variable, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.name for a in node.names}
    return names


@pytest.mark.parametrize("module", ("__init__",) + PRODUCTION)
def test_production_imports_no_checking_code(module):
    assert not _imported(_tree(PACKAGE / f"{module}.py")) & CHECKING


def test_oracles_use_only_the_declared_production_names():
    assert _shared(*_oracles()) == SHARED


def test_each_oracle_names_what_it_shares():
    tree, modules = _oracles()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            doc = ast.get_docstring(node) or ""
            assert {n for n in _shared(node, modules) if n not in doc} == set(), node.name


def test_every_oracle_is_compared_against():
    tree, _ = _oracles()
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((t.id, node) for t in node.targets)
    tests = [p for p in Path(__file__).parent.glob("test_*.py") if p.name != Path(__file__).name]
    roots = [PACKAGE / "verify.py"] + tests
    live = set().union(*map(_names, map(_tree, roots))) & defs.keys()
    while grown := set().union(*(_names(defs[n]) for n in live)) & (defs.keys() - live):
        live |= grown
    assert defs.keys() - live == set()
