"""The package carries no code that only the tests reach, no file check but
its one file boundary, and no branch on an architecture's name."""

import ast
from pathlib import Path

from langlab.models import CONFIG_TYPES

SRC = Path(__file__).parent.parent / "src" / "langlab"

ALLOWED = {
    # perfbench's parity_inverts check calls it on a corpus read back from
    # disk; the product transforms corpora but never inverts one
    "transforms.invert_parity_negation",
    # perfbench's round_trip_exact and parity_inverts checks read it
    "grammar.Sentence.words",
}


def _is_all(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _names(stmt) -> set[str]:
    """Every name, attribute and imported name the statement mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.name for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def _attributes(stmt) -> set[str]:
    """Every attribute name the statement mentions, as in ``obj.name``."""
    return {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}


def _uses(stmt, modules) -> set[str]:
    """The top-level names the statement uses: a bare name it loads, a name it
    imports, or ``module.name`` for a module of the package.  An attribute of
    any other object, such as a dataclass field of the same name, is no use."""
    used = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used.add(n.id)
        elif isinstance(n, ast.alias):
            used.add(n.name)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in modules):
            used.add(n.attr)
    return used


def test_every_public_name_is_reached_by_product_code():
    """Each public top-level function and class of src/langlab/*.py is
    used by a statement of some module other than its own definition: by
    another module, or by another definition of its own module, as
    default_grammar uses pluralize.  Each public method or property of a
    public class is referenced as an attribute (``obj.name``) by some
    statement, its own class included; a local variable of the same name is
    no reference.  __init__ and the __all__ lists do not count, so a name that
    only the tests call fails here."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}
    statements = [(stmt, _attributes(stmt), _uses(stmt, trees)) for tree in trees.values()
                  for stmt in tree.body if not _is_all(stmt)]
    unreached = [
        f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(stmt is not node and node.name in uses for stmt, _, uses in statements)
    ]
    unreached += [
        f"{module}.{node.name}.{item.name}" for module, tree in trees.items()
        for node in tree.body if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body if isinstance(item, ast.FunctionDef)
        and not item.name.startswith("_")
        and not any(item.name in attributes for _, attributes, _ in statements)
    ]
    assert sorted(set(unreached) - ALLOWED) == []
    assert ALLOWED <= set(unreached)  # an entry that product code reaches goes


def test_no_ad_hoc_file_checks():
    """A path is checked by opening it: corpusio.read_bytes turns an OSError
    into an InputError that names the file, and the CLI exits 3 on any other
    OSError.  So no module asks first whether a path is a file or exists, and
    none handles FileNotFoundError, which would miss directories and
    permissions."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("is_file", "exists")):
                found.append(f"{path.name}:{n.lineno}: .{n.func.attr}()")
            elif isinstance(n, ast.ExceptHandler) and n.type is not None and any(
                    isinstance(t, ast.Name) and t.id == "FileNotFoundError"
                    for t in ast.walk(n.type)):
                found.append(f"{path.name}:{n.lineno}: except FileNotFoundError")
    assert found == []


def test_no_branch_on_an_architecture():
    """An architecture is declared once, by its config class in models.py,
    and code asks the config (arch, max_seq, forward, ...) rather than which
    architecture it is.  So no module compares a value with an architecture
    name or asks isinstance of a config class."""
    classes = {cls.__name__ for cls in CONFIG_TYPES.values()}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Compare) and any(
                    isinstance(c, ast.Constant) and c.value in CONFIG_TYPES
                    for side in (n.left, *n.comparators) for c in ast.walk(side)):
                found.append(f"{path.name}:{n.lineno}: compare with an arch name")
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "isinstance" and classes & _names(n)):
                found.append(f"{path.name}:{n.lineno}: isinstance of a config class")
    assert found == []
