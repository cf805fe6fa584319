"""Malformed input files never crash the command line: whatever an algebra,
module or map file holds, every command that reads it returns exit code 0,
1 or 2 from `main`, raises nothing, and an input error (exit 2) prints
nothing on stdout."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from matderiv import basis_vec, catalog, inner_derivation, matrix_pair
from matderiv.cli import main


def _inner_e11_rows():
    """ad(E11 (x) 1) on M_2(dual_numbers): a derivation, as map-file rows."""
    a, m = catalog("dual_numbers")
    ma, mm = matrix_pair(a, m, 2)
    mat = inner_derivation(ma.algebra, mm.bimodule, basis_vec(8, 0)).linmap.matrix
    return [[str(mat.at(r, c)) for c in range(mat.cols)] for r in range(mat.rows)]


# One valid file of each kind (the algebra is dual_numbers); each command
# below exits 0 on it, except on a perturbed oracle, which it rejects.
VALID = {
    "algebra": {"name": "dual", "dim": 2, "basis_labels": ["1", "eps"],
                "unit": ["1", "0"],
                "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"},
                         {"i": 0, "j": 1, "k": 1, "c": "1"},
                         {"i": 1, "j": 0, "k": 1, "c": "1"}]},
    "module": {"dim": 1, "left": [{"i": 0, "p": 0, "q": 0, "c": "1"}],
               "right": [{"p": 0, "i": 0, "q": 0, "c": "1"}]},
    "map": {"kind": "derivation", "algebra": "dual_numbers", "module": "regular",
            "matrix": _inner_e11_rows()},
}

# The commands that read each kind of file: {f} is the drawn file, {map} the
# valid map.
COMMANDS = {
    "algebra": (("validate", "{f}"), ("derspace", "{f}"), ("derspace", "{f}", "-n", "2"),
                ("decompose", "{f}", "-n", "2", "--derivation", "{map}"),
                ("lemma22", "{f}", "-n", "2", "--derivation", "{map}"),
                ("twolocal", "{f}", "-n", "2", "--oracle", "{map}", "--samples", "3")),
    "module": (("validate", "field", "--module", "{f}"),
               ("derspace", "field", "--module", "{f}"),
               ("derspace", "field", "--module", "{f}", "-n", "2")),
    "map": (("decompose", "dual_numbers", "-n", "2", "--derivation", "{f}"),
            ("lemma22", "dual_numbers", "-n", "2", "--derivation", "{f}"),
            ("lemma22", "dual_numbers", "-n", "2", "--derivation", "{f}",
             "--bypass-certify"),
            ("twolocal", "dual_numbers", "-n", "2", "--oracle", "{f}", "--samples", "3"),
            ("twolocal", "dual_numbers", "-n", "2", "--oracle",
             "perturb:quadratic_block:{f}", "--samples", "3")),
}

HOLE = "\x00hole"


def _digits(lo, hi):
    return st.integers(lo, hi).map(lambda n: "9" * n)


# JSON text for one value: wrong types, indices in and out of range, and
# numbers within and past Python's 4300-digit int conversion limit
JUNK = st.one_of(
    st.sampled_from(("null", "true", "false", "[]", "{}", '"x"', '""', "1.5",
                     "-0.0", "1e400", '"1/0"', '"0.5"', '["1"]', '{"c": "1"}')),
    st.integers(-3, 6).map(str),
    st.integers(-3, 6).map(lambda n: f'"{n}"'),
    _digits(4000, 4600),
    _digits(4000, 4600).map(lambda d: f'"{d}"'),
    st.tuples(_digits(1, 2200), _digits(1, 2200)).map(lambda p: f'"{p[0]}/{p[1]}"'),
)


def _paths(node, path=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutated(tree, path, value):
    """A copy of tree with the node at path replaced (or deleted, value None)."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    copy = dict(tree) if isinstance(tree, dict) else list(tree)
    if rest or value is not None:
        copy[head] = _mutated(tree[head], rest, value)
    else:
        del copy[head]
    return copy


@st.composite
def malformed(draw, kind):
    """The bytes of a damaged file of the given kind."""
    tree = VALID[kind]
    text = json.dumps(tree)
    how = draw(st.sampled_from(("bytes", "truncate", "replace", "delete")))
    if how == "bytes":
        return draw(st.binary(max_size=64))
    if how == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))].encode()
    path = draw(st.sampled_from(list(_paths(tree))))
    if how == "delete" and path:
        return json.dumps(_mutated(tree, path, None)).encode()
    text = json.dumps(_mutated(tree, path, HOLE))
    return text.replace(json.dumps(HOLE), draw(JUNK)).encode()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("robustness")
    (path / "map.json").write_text(json.dumps(VALID["map"]), encoding="utf-8")
    return path


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:        # argparse; the argv here are well formed
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _run_every_command(workdir, kind, content):
    """(argv, exit code, stdout, stderr) of each command reading content."""
    path = workdir / f"{kind}.json"
    path.write_bytes(content)
    for template in COMMANDS[kind]:
        argv = [a.format(f=path, map=workdir / "map.json") for a in template]
        yield (argv, *_run(argv))


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_files_are_accepted(workdir, kind):
    content = json.dumps(VALID[kind]).encode()
    for argv, rc, _, err in _run_every_command(workdir, kind, content):
        perturbed = any(a.startswith("perturb:") for a in argv)
        assert rc == (1 if perturbed else 0), (argv, err)


def _check(workdir, kind, content):
    for argv, rc, out, err in _run_every_command(workdir, kind, content):
        assert rc in (0, 1, 2), (argv, rc)
        if rc == 2:
            assert out == "" and err.startswith("error: "), (argv, err[:200])


@settings(max_examples=40)
@given(content=malformed("algebra"))
def test_malformed_algebra_file(workdir, content):
    _check(workdir, "algebra", content)


@settings(max_examples=40)
@given(content=malformed("module"))
def test_malformed_module_file(workdir, content):
    _check(workdir, "module", content)


@settings(max_examples=40)
@given(content=malformed("map"))
def test_malformed_map_file(workdir, content):
    _check(workdir, "map", content)
