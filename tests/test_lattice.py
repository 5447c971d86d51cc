"""Partition lattice: enumeration order, refinement axioms, zeta/Mobius."""

import math
import random

import pytest

from mobiusboot.lattice import (
    CapExceededError,
    DimensionError,
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
)
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
    with pytest.raises(CapExceededError):
        enumerate_partitions(0)


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
