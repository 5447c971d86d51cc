"""Partition lattice: enumeration order, refinement axioms, zeta/Mobius."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mobiusboot import artifact, lattice
from mobiusboot.lattice import (
    CapExceededError,
    DimensionError,
    IncidenceMatrix,
    Partition,
    bell,
    coarsenings,
    cover_edges,
    enumerate_partitions,
    falling_factorial,
    format_partition,
    mobius_matrix,
    parse_partition,
    stirling2,
    zeta_matrix,
    _coarsening_rows,
    _groupings,
    _support_rows,
)
import oracles
from oracles import refines

# Frozen from the 5x5 incidence matrices of the three-element lattice,
# order [1|2|3, 12|3, 13|2, 1|23, 123].
ZETA_M3 = [
    [1, 0, 0, 0, 0],
    [1, 1, 0, 0, 0],
    [1, 0, 1, 0, 0],
    [1, 0, 0, 1, 0],
    [1, 1, 1, 1, 1],
]
MOBIUS_M3 = [
    [1, 0, 0, 0, 0],
    [-1, 1, 0, 0, 0],
    [-1, 0, 1, 0, 0],
    [-1, 0, 0, 1, 0],
    [2, -1, -1, -1, 1],
]


def test_bell_small_values():
    assert [bell(m) for m in range(11)] == [
        1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975,
    ]


def test_stirling2_values():
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(3, 5) == 0
    # row sums reproduce the Bell numbers
    for m in range(13):
        assert sum(stirling2(m, k) for k in range(m + 1)) == bell(m)


def test_falling_factorial():
    assert falling_factorial(4, 2) == 12
    assert falling_factorial(2, 3) == 0  # no injective assignment exists
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(5, 5) == math.factorial(5)


@pytest.mark.parametrize("m,expected", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
def test_enumeration_count(m, expected):
    assert len(enumerate_partitions(m)) == expected


def test_enumeration_order_m3():
    idx = enumerate_partitions(3)
    assert [format_partition(p) for p in idx] == ["1|2|3", "12|3", "13|2", "1|23", "123"]


def test_enumeration_finest_first_coarsest_last():
    for m in range(1, 6):
        idx = enumerate_partitions(m)
        assert idx[0] == Partition.finest(m)
        assert idx[len(idx) - 1] == Partition.coarsest(m)
        counts = [p.block_count for p in idx]
        assert counts == sorted(counts, reverse=True)


def test_enumeration_is_linear_extension():
    # finer partitions must appear strictly before their proper coarsenings
    for m in range(1, 6):
        idx = enumerate_partitions(m)
        for pi in idx:
            for coarse in coarsenings(pi):
                assert idx.position(pi) <= idx.position(coarse)


def test_cap_errors_name_bell():
    with pytest.raises(CapExceededError, match="Bell"):
        enumerate_partitions(11)
    # Bell(9)^2 list slots would already be 3.6 GB of pointers per matrix
    with pytest.raises(CapExceededError, match=r"Bell\(9\) = 21147"):
        enumerate_partitions(9)
    with pytest.raises(CapExceededError):
        enumerate_partitions(0)


def test_cap_error_of_a_large_m_names_no_bell_number():
    # Bell(2000) has over 4300 digits, more than str() of an int prints
    with pytest.raises(CapExceededError) as info:
        enumerate_partitions(2000)
    assert str(info.value) == "m=2000 outside supported range 1..8"


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_coarsening_rows_are_merge_positions(m):
    idx = enumerate_partitions(m)
    table = _coarsening_rows(m)
    assert len(table) == len(idx)
    for sigma, rows in zip(idx, table):
        assert rows == tuple(
            idx.position(sigma.merge(grouping)) for grouping, _, _ in _groupings(sigma.block_count)
        )


def test_partition_canonical_form():
    a = Partition.from_blocks([[0, 2], [1], [3]])
    b = Partition.from_blocks([[3], [1], [2, 0]])
    assert a == b
    assert a.rgs == (0, 1, 0, 2)
    assert hash(a) == hash(b)
    assert a.blocks == ((0, 2), (1,), (3,))


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 0))  # first label must be 0
    with pytest.raises(ValueError):
        Partition((0, 2))  # skips label 1
    with pytest.raises(ValueError):
        Partition.from_blocks([[0], [2]])  # misses position 1
    with pytest.raises(ValueError):
        Partition.from_blocks([[0, 1], [1]])  # overlap


def test_text_format_round_trip():
    assert format_partition(Partition.from_blocks([[0, 2], [1], [3]])) == "13|2|4"
    assert parse_partition("13|2|4") == Partition.from_blocks([[0, 2], [1], [3]])
    for m in range(1, 6):
        for p in enumerate_partitions(m):
            assert parse_partition(format_partition(p)) == p
    # ten elements: '10' is parsed as one element
    ten = Partition.from_blocks([[0, 9], [1, 2, 3, 4, 5, 6, 7, 8]])
    assert format_partition(ten) == "110|23456789"
    assert parse_partition("110|23456789") == ten


def test_parse_rejects_garbage():
    for bad in ["", "1||2", "1|a", "0|1", "13|3", "2|4"]:
        with pytest.raises(ValueError):
            parse_partition(bad)


def test_refines_examples():
    assert refines(parse_partition("1|2|3"), parse_partition("12|3"))
    assert not refines(parse_partition("12|3"), parse_partition("13|2"))
    p = parse_partition("13|2|4")
    assert refines(p, p)
    with pytest.raises(DimensionError):
        refines(parse_partition("1|2"), parse_partition("1|2|3"))


def test_refines_partial_order_axioms():
    # reflexive, antisymmetric, transitive on every lattice up to 5 elements
    for m in range(1, 6):
        parts = list(enumerate_partitions(m))
        leq = {
            (a, b): refines(a, b) for a in parts for b in parts
        }
        for a in parts:
            assert leq[a, a]
        for a in parts:
            for b in parts:
                if leq[a, b] and leq[b, a]:
                    assert a == b
        for a in parts:
            below = [b for b in parts if leq[a, b]]
            for b in below:
                for c in parts:
                    if leq[b, c]:
                        assert leq[a, c]


def test_coarsenings_counts_and_membership():
    finest = Partition.finest(3)
    assert set(coarsenings(finest)) == set(enumerate_partitions(3))
    two = parse_partition("12|3")
    assert set(coarsenings(two)) == {two, parse_partition("123")}
    top = parse_partition("123")
    assert coarsenings(top) == [top]
    for m in range(1, 6):
        for p in enumerate_partitions(m):
            cs = coarsenings(p)
            assert len(cs) == bell(p.block_count)
            assert all(refines(p, c) for c in cs)
            assert p in cs


def test_cover_edges_are_covers():
    idx = enumerate_partitions(4)
    edges = cover_edges(idx)
    # merging two blocks drops the block count by exactly one
    for fine, coarse in edges:
        assert refines(fine, coarse)
        assert coarse.block_count == fine.block_count - 1
    expected = sum(
        stirling2(4, k) * math.comb(k, 2) for k in range(1, 5)
    )
    assert len(edges) == expected == 31
    assert len(cover_edges(enumerate_partitions(3))) == 6


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_cover_edges_of_index_match_merge_route(m):
    # a LatticeIndex reads the coarsening table; a plain list merges each pair
    idx = enumerate_partitions(m)
    assert cover_edges(idx) == cover_edges(list(idx))


def test_cover_edges_beyond_dense_cap():
    # partitions given one by one are merged, so m is not held to the cap
    pi = Partition([0, 1, 0, 2, 3, 1, 4, 0, 2, 4, 3, 1])
    edges = cover_edges([pi])
    assert len(edges) == math.comb(5, 2)
    assert edges[0] == (pi, Partition([0, 0, 0, 1, 2, 0, 3, 0, 1, 3, 2, 0]))
    assert all(refines(pi, coarse) and coarse.block_count == 4 for _, coarse in edges)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_support_is_the_refinement_order(m):
    idx = enumerate_partitions(m)
    support = zeta_matrix(m).support()
    assert support is mobius_matrix(m).support()
    for pi, cols in zip(idx, support):
        assert cols == tuple(j for j, sigma in enumerate(idx) if refines(sigma, pi))
    for matrix in (zeta_matrix(m), mobius_matrix(m)):
        for row, cols in zip(matrix.entries, support):
            assert all(type(v) is int and v == 0 for j, v in enumerate(row) if j not in cols)


def test_zeta_and_mobius_match_frozen_m3():
    assert zeta_matrix(3).entries == ZETA_M3
    assert mobius_matrix(3).entries == MOBIUS_M3


def test_zeta_m1_and_m2():
    assert zeta_matrix(1).entries == [[1]]
    assert mobius_matrix(1).entries == [[1]]
    assert mobius_matrix(2).entries == [[1, 0], [-1, 1]]


def test_zeta_definition_and_triangularity():
    for m in range(1, 6):
        z = zeta_matrix(m)
        idx = z.index
        for i, sigma in enumerate(idx):
            for j, pi in enumerate(idx):
                assert z.entries[i][j] == (1 if refines(pi, sigma) else 0)
                if j > i:
                    assert z.entries[i][j] == 0
            assert z.entries[i][i] == 1


def test_mobius_inverts_zeta_exactly():
    # int64 matmul is exact here: entries stay far below 2**63
    import numpy as np

    for m in range(1, 8):
        z = np.array(zeta_matrix(m).entries, dtype=np.int64)
        mu = np.array(mobius_matrix(m).entries, dtype=np.int64)
        n = len(z)
        assert (z @ mu == np.eye(n, dtype=np.int64)).all()
        assert (mu @ z == np.eye(n, dtype=np.int64)).all()


def _mobius_by_substitution(m):
    """Oracle: invert the zeta matrix by forward substitution, O(Bell(m)^3)."""
    z = zeta_matrix(m).entries
    n = len(z)
    inv = [[0] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = 1
        for i in range(j + 1, n):
            inv[i][j] = -sum(inv[k][j] for k in range(j, i) if z[i][k])
    return inv


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_mobius_product_formula_matches_forward_substitution(m):
    assert mobius_matrix(m).entries == _mobius_by_substitution(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_zeta_and_mobius_match_per_cell_oracle(m):
    # one weight per grouping row, placed along the coarsening table, against
    # one checked Partition merge and index lookup per cell
    assert zeta_matrix(m).entries == oracles.zeta_entries(m)
    assert mobius_matrix(m).entries == oracles.mobius_entries(m)


def test_mobius_finest_to_coarsest_entry():
    # the corner entry is (-1)^(m-1) (m-1)!
    for m in range(1, 7):
        mu = mobius_matrix(m)
        idx = mu.index
        corner = mu.entries[len(idx) - 1][0]
        assert corner == (-1) ** (m - 1) * math.factorial(m - 1)


def test_counting_identity_functions_by_coincidence_pattern():
    # N^m = sum over partitions of falling(N, #blocks)
    #     = sum over levels of stirling2(m, k) falling(N, k)
    rng = random.Random(7)
    for m in range(1, 9):
        idx = enumerate_partitions(m)
        for N in [1, 2, 3, rng.randint(4, 20), 20]:
            total = sum(falling_factorial(N, p.block_count) for p in idx)
            assert total == N**m
            by_level = sum(
                stirling2(m, k) * falling_factorial(N, k) for k in range(m + 1)
            )
            assert by_level == N**m


# -- stored cells ----------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_zeta_and_mobius_stored_cells_match_per_cell_oracle(m):
    for matrix, want in ((zeta_matrix(m), oracles.zeta_entries(m)),
                         (mobius_matrix(m), oracles.mobius_entries(m))):
        # the builders share the support's tuples as their column lists
        assert matrix.columns is _support_rows(m)
        oracles.assert_stored_cells(matrix, want)


# one value of each kind a dense row may hold, with whether matrix_from_rows stores it
ROUND_TRIP_CELLS = [
    (0, False),
    (Fraction(0), False),
    (0.0, True),
    (False, True),
    (Fraction(3, 4), True),
    ("7", True),
    ("0", True),
    (-2.5, True),
]


@pytest.mark.parametrize("value, stored", ROUND_TRIP_CELLS, ids=repr)
@pytest.mark.parametrize("where", ["on-the-order", "off-the-order"])
def test_constructor_round_trip(value, stored, where):
    # finest row: only its diagonal is on the order; coarsest row: every column is
    Z = zeta_matrix(3)
    dense = [list(row) for row in Z.entries]
    i, j = (4, 2) if where == "on-the-order" else (0, 4)
    dense[i][j] = value
    planted = oracles.matrix_from_rows(Z.index, dense)
    assert (j in planted.columns[i]) is stored
    for row, cols in enumerate(planted.columns):
        assert list(cols) == sorted(cols)
        if row != i:
            assert cols == Z.columns[row]
    # the one constructor holds the cells it is given, as they are
    M = IncidenceMatrix(planted.index, planted.columns, planted.values)
    assert (M.index, M.columns, M.values) == (Z.index, planted.columns, planted.values)
    if stored:
        assert M.values[i][M.columns[i].index(j)] is value
    back = M.entries
    # every cell comes back as it went in, but an int or Fraction 0 comes back as the int 0
    want = value if stored else 0
    assert back[i][j] == want and type(back[i][j]) is type(want)
    assert back == dense
    for row, cols in zip(back, M.columns):
        assert all(type(row[c]) is int and row[c] == 0 for c in set(range(len(row))) - set(cols))
    assert M.entries is back  # built once


def test_incidence_matrix_has_one_constructor_from_its_stored_cells():
    # IncidenceMatrix(index, columns, values) is the only way to build one: no
    # dense-rows constructor, no classmethod, no two-argument call in src/;
    # the writer reads no private lattice name and no dense-row iterator
    def classes(module):
        tree = ast.parse(Path(module.__file__).read_text())
        return tree, {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    _, lattice_classes = classes(lattice)
    methods = {
        node.name: node for node in lattice_classes["IncidenceMatrix"].body
        if isinstance(node, ast.FunctionDef)
    }
    assert not [
        name for name, node in methods.items()
        if any(ast.unparse(d) == "classmethod" for d in node.decorator_list)
    ]
    assert [a.arg for a in methods["__init__"].args.args] == ["self", "index", "columns", "values"]
    calls = [
        node
        for path in sorted(Path(lattice.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("IncidenceMatrix")
    ]
    assert calls and all(len(call.args) + len(call.keywords) == 3 for call in calls)
    tree, artifact_classes = classes(artifact)
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "lattice"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    rows_methods = [n.name for n in artifact_classes["_MatrixRows"].body if isinstance(n, ast.FunctionDef)]
    assert "__iter__" not in rows_methods


def test_mobius_m8_from_stored_cells():
    M = mobius_matrix(8)
    idx = M.index
    assert sum(map(len, M.values)) == 167894
    # the product formula on sampled rows: mu(sigma, pi) is the product over pi's
    # blocks of (-1)^(b-1) (b-1)!, b the number of sigma's blocks inside it
    for row in list(range(0, len(idx), 577)) + [len(idx) - 1]:
        pi = idx[row]
        cols = [j for j, sigma in enumerate(idx) if refines(sigma, pi)]
        assert list(M.columns[row]) == cols
        for j, v in zip(M.columns[row], M.values[row]):
            counts = {}
            for block in idx[j].blocks:
                counts[pi.rgs[block[0]]] = counts.get(pi.rgs[block[0]], 0) + 1
            want = math.prod((-1) ** (b - 1) * math.factorial(b - 1) for b in counts.values())
            assert type(v) is int and v == want
    assert M._entries is None  # no dense row was built
