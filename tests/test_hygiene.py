"""Source hygiene of the package, read with the standard library's ast: no
module imports a name it never reads, no private module-level function, class
or constant is left that no module reads, no public export is left that no
module, test or bench file reads, the dense forms kept for callers outside
the package are read only where named, and no class fills attributes on
demand through __getattr__."""

import ast
from pathlib import Path

import matderiv

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matderiv"


def _trees(directory=PACKAGE):
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def _reads(tree):
    """Every name the module reads: loaded names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for fname, tree in _trees().items():
        if fname == "__init__.py":            # its imports are the re-exports
            continue
        reads = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in reads and not _dunder(name):
                        unread.append(f"{fname}: {name}")
    assert unread == []


def test_no_private_module_level_name_is_unread():
    trees = _trees()
    reads = set().union(*map(_reads, trees.values()))
    unread = []
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread.extend(f"{fname}: {name}" for name in names
                          if name.startswith("_") and not _dunder(name)
                          and name not in reads)
    assert unread == []


def test_every_export_is_read_outside_the_package_init():
    trees = [t for name, t in _trees().items() if name != "__init__.py"]
    trees += [*_trees(ROOT / "tests").values(), *_trees(ROOT / "bench").values()]
    reads = set().union(*map(_reads, trees))
    assert [name for name in matderiv.__all__ if name not in reads] == []


# attribute: the (module, top-level definition) pairs that may read it.
# Matrix.entries, Algebra.mult and Matrix.from_rows stay for callers outside
# the package; inside it, maps and subspaces are read through their nonzeros.
DENSE_READS = {
    "entries": {("exactlin.py", "Matrix")},
    "mult": set(),
    "from_rows": set(),
}


def test_dense_forms_are_read_only_where_named():
    bad = []
    for fname, tree in _trees().items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in DENSE_READS
                        and (fname, owner) not in DENSE_READS[node.attr]):
                    bad.append(f"{fname}: {owner} reads .{node.attr}")
    assert bad == []


def test_no_class_defines_getattr():
    """A stored form is its fields: no class fills a second form on demand."""
    bad = [f"{fname}: {node.name}" for fname, tree in _trees().items()
           for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
           for item in node.body
           if isinstance(item, ast.FunctionDef) and item.name == "__getattr__"]
    assert bad == []
