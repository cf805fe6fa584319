"""Source hygiene of the package, read with the standard library's ast: no
module imports a name it never reads, no private module-level function, class
or constant is left that no module reads, no public export is left that no
module, test or bench file reads, the dense forms kept for callers outside
the package are read only where named, dense vectors are built only where
named, a Derivation is built only by the constructors that name the pair it
was certified on, no class fills attributes on demand through
__getattr__, no module builds a run of empty table cells, and zip(*...)
transposes only where named."""

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
NAMED_READS = {
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
                if (isinstance(node, ast.Attribute) and node.attr in NAMED_READS
                        and (fname, owner) not in NAMED_READS[node.attr]):
                    bad.append(f"{fname}: {owner} reads .{node.attr}")
    assert bad == []


def _owned_nodes(tree):
    """(owner, node) for every node of a module below its top level: the
    owner is the top-level definition, or Class.member inside a class."""
    for top in tree.body:
        for member in top.body if isinstance(top, ast.ClassDef) else [top]:
            owner = getattr(member, "name", None)
            if member is not top:
                owner = f"{top.name}.{owner}" if owner else top.name
            for node in ast.walk(member):
                yield owner, node


# the (module, definition) pairs that may call Derivation(...), a method
# named Class.method: the honest constructors, which set the pair they
# certified on (lift builds the lift of a certified base derivation, a
# derivation block by block, and PairIso.transport moves a derivation along
# the isomorphism of pairs its constructor certified), and the CLI's
# --bypass-certify door, which forges a map on the pair under test
DERIVATION_BUILDERS = {
    ("dercalc.py", "certify"),
    ("dercalc.py", "inner_derivation"),
    ("matext.py", "lift"),
    ("matext.py", "PairIso.transport"),
    ("twolocal.py", "pair_witness"),
    ("cli.py", "_certified_map"),
}


def test_derivations_are_built_only_by_the_named_constructors():
    built = {(fname, owner) for fname, tree in _trees().items()
             for owner, node in _owned_nodes(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Derivation"}
    assert built == DERIVATION_BUILDERS


# the (function, module, definition) triples that may call a dense vector
# builder of exactlin: the two twolocal functions that build query points
# coordinate by coordinate.  The builders stay for callers outside the
# package; inside it, the validators and every other function expand
# nonzeros, so a dense basis vector per basis element never comes back.
DENSE_VECTOR_CALLS = {
    ("basis_vec", "twolocal.py", "central_idempotent_compat"),
    ("zero_vec", "twolocal.py", "canonical_S_T"),
}


def test_dense_vectors_are_built_only_where_named():
    called = {(node.func.id, fname, owner) for fname, tree in _trees().items()
              for owner, node in _owned_nodes(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("basis_vec", "zero_vec")}
    assert called == DENSE_VECTOR_CALLS


def test_no_class_defines_getattr():
    """A stored form is its fields: no class fills a second form on demand."""
    bad = [f"{fname}: {node.name}" for fname, tree in _trees().items()
           for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
           for item in node.body
           if isinstance(item, ast.FunctionDef) and item.name == "__getattr__"]
    assert bad == []


def _is_empty_cell_run(node):
    """A product such as [()] * k or ((),) * k: a list or tuple of empty
    tuples repeated, the grid of empty cells that no table stores."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(isinstance(side, (ast.List, ast.Tuple)) and side.elts
                    and all(isinstance(e, ast.Tuple) and not e.elts for e in side.elts)
                    for side in (node.left, node.right)))


def test_no_module_builds_a_run_of_empty_cells():
    built = [f"{fname}: {owner}" for fname, tree in _trees().items()
             for owner, node in _owned_nodes(tree) if _is_empty_cell_run(node)]
    assert built == []


# the (module, definition) pairs that may call zip(*...): verify_lemma22's
# sum of component columns.  A table is transposed by algcore._transpose,
# which reads its rows of nonempty cells and needs no zip(*...).
ZIP_STAR_CALLS = {("matext.py", "verify_lemma22")}


def test_zip_star_is_called_only_where_named():
    called = {(fname, owner) for fname, tree in _trees().items()
              for owner, node in _owned_nodes(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "zip" and any(isinstance(a, ast.Starred) for a in node.args)}
    assert called == ZIP_STAR_CALLS
