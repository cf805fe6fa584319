"""Shared fixtures: catalog pairs, matrix pairs, and derivation spaces are
computed once per session since several test modules and the acceptance
suite query the same objects."""

import json

import pytest
from hypothesis import settings, strategies as st

from fractions import Fraction as F

from matderiv import (Algebra, Bimodule, catalog, derivation_space, from_matrices,
                      inner_space, matrix_pair)

# Every property test runs under this profile: reproducible examples, no
# example database, no per-example deadline.  Each test sets max_examples.
settings.register_profile("matderiv", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("matderiv")

CATALOG = ("field", "dual_numbers", "group_algebra_C2", "full_matrix_2",
           "upper_triangular_2", "direct_sum(field,field)")


@pytest.fixture(scope="session")
def pairs():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = catalog(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def mpairs(pairs):
    cache = {}

    def get(name, n):
        if (name, n) not in cache:
            a, m = pairs(name)
            cache[(name, n)] = matrix_pair(a, m, n)
        return cache[(name, n)]

    return get


@pytest.fixture(scope="session")
def derspaces(pairs, mpairs):
    """derivation_space for a base pair (n=None) or a matrix pair."""
    cache = {}

    def get(name, n=None):
        if (name, n) not in cache:
            if n is None:
                a, m = pairs(name)
            else:
                ma, mm = mpairs(name, n)
                a, m = ma.algebra, mm.bimodule
            cache[(name, n)] = derivation_space(a, m)
        return cache[(name, n)]

    return get


@pytest.fixture(scope="session")
def innerspaces(pairs, mpairs):
    cache = {}

    def get(name, n=None):
        if (name, n) not in cache:
            if n is None:
                a, m = pairs(name)
            else:
                ma, mm = mpairs(name, n)
                a, m = ma.algebra, mm.bimodule
            cache[(name, n)] = inner_space(a, m)
        return cache[(name, n)]

    return get


def mixed_basis_full_matrix_2():
    """M_2(Q) in the basis u = E11+E22, h = E11-E22, x = E12, y = E21, where
    products have several terms (xy = (u+h)/2) that can cancel in sums."""
    return from_matrices(("u", "h", "x", "y"), [((1, 0), (0, 1)), ((1, 0), (0, -1)),
                                                ((0, 1), (0, 0)), ((0, 0), (1, 0))])


def column_module():
    """T_2 acting on Q^2: columns on the left, the character E22 -> 1 on the
    right, in the basis f_0 = e_1, f_1 = e_2/3 (so E12.f_1 = f_0/3)."""
    a = catalog("upper_triangular_2")[0]
    m = Bimodule.from_sparse(
        2, 3, {(0, 0, 0): F(1), (1, 1, 0): F(1, 3), (2, 1, 1): F(1)},
        {(0, 2, 0): F(1), (1, 2, 1): F(1)})
    return a, m


# nonzero basis scales: signs and the denominators 3, 2 and 7
SCALES = (F(1), F(-1), F(2), F(-1, 3), F(5, 2), F(-4, 7))
_scales = st.sampled_from(SCALES)


def rebase(a, m, s, t):
    """The pair in the basis s_i e_i of the algebra and t_p f_p of the module,
    for nonzero rationals s and t (all 1 gives the pair back)."""
    mult = {(i, j, k): s[i] * s[j] / s[k] * c for i, plane in enumerate(a.table)
            for j, cell in enumerate(plane) for k, c in cell}
    left = {(i, p, q): s[i] * t[p] / t[q] * c for i, plane in enumerate(m.left_table)
            for p, cell in enumerate(plane) for q, c in cell}
    right = {(p, i, q): t[p] * s[i] / t[q] * c for p, plane in enumerate(m.right_table)
             for i, cell in enumerate(plane) for q, c in cell}
    unit = [u / s[k] for k, u in enumerate(a.unit)]
    return (Algebra.from_sparse(a.dim, a.labels, unit, mult),
            Bimodule.from_sparse(m.dim, a.dim, left, right))


@st.composite
def _rebased_pairs(draw, a, m):
    """rebase(a, m, s, t) for drawn scales s of the algebra basis and t of
    the module basis."""
    s = [draw(_scales) for _ in range(a.dim)]
    t = [draw(_scales) for _ in range(m.dim)]
    return rebase(a, m, s, t)


def dense_to_triples(tensor):
    """{(i, j, k): c} for the nonzero entries of a dense 3-index tensor, in
    the form Algebra.from_sparse and Bimodule.from_sparse take."""
    return {(i, j, k): c for i, plane in enumerate(tensor)
            for j, row in enumerate(plane) for k, c in enumerate(row) if c}


def table_triples(table):
    """{(i, j, k): c} for the entries of a sparse structure table, in the
    form Algebra.from_sparse and Bimodule.from_sparse take."""
    return {(i, j, k): c for i, plane in enumerate(table)
            for j, cell in enumerate(plane) for k, c in cell}


def dense_cube(table, dim):
    """The dense tensor c[i][j][k] of a sparse structure table whose
    products have dimension dim."""
    cube = [[[F(0)] * dim for _ in plane] for plane in table]
    for (i, j, k), c in table_triples(table).items():
        cube[i][j][k] = c
    return cube


def swap_outer(triples):
    """Exchange the first two indices: left-action triples (i, p, q) become
    right-action triples (p, i, q) and back."""
    return {(j, i, k): c for (i, j, k), c in triples.items()}


def write_map_file(path, lin, algebra="field", module="regular",
                   kind="derivation"):
    """Serialize a LinearMap as a MapFile the cli commands accept."""
    mat = [[str(lin.matrix.at(r, c)) for c in range(lin.matrix.cols)]
           for r in range(lin.matrix.rows)]
    path.write_text(json.dumps({"kind": kind, "algebra": algebra,
                                "module": module, "matrix": mat}),
                    encoding="utf-8")
    return str(path)


def write_algebra_file(path, name, dim, labels, unit, mult_triples):
    """mult_triples: mapping (i, j, k) -> rational string."""
    mult = [{"i": i, "j": j, "k": k, "c": c}
            for (i, j, k), c in sorted(mult_triples.items())]
    path.write_text(json.dumps({"name": name, "dim": dim,
                                "basis_labels": list(labels),
                                "unit": list(unit), "mult": mult}),
                    encoding="utf-8")
    return str(path)


def write_module_file(path, m, name="module"):
    left = [{"i": i, "p": p, "q": q, "c": str(c)}
            for (i, p, q), c in table_triples(m.left_table).items()]
    right = [{"p": p, "i": i, "q": q, "c": str(c)}
             for (p, i, q), c in table_triples(m.right_table).items()]
    path.write_text(json.dumps({"name": name, "dim": m.dim, "left": left,
                                "right": right}), encoding="utf-8")
    return str(path)
