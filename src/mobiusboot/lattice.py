"""Set partition lattice: enumeration, refinement order, zeta/Mobius matrices.

Partitions of {0..m-1} are stored as restricted growth strings (RGS): position
i carries the index of its block, blocks numbered by first appearance.  The
lattice is ordered by refinement (sigma <= pi iff every block of sigma lies
inside a block of pi) and linearised finest-first so that every matrix moving
mass from finer to coarser partitions comes out lower triangular.

All combinatorics (Bell, Stirling, falling factorials) are exact integers.
"""

from collections import Counter
from functools import lru_cache
from math import factorial, perm, prod

DEFAULT_CAP = 10  # Bell(10) = 115975 dense lattice elements


class CapExceededError(ValueError):
    """Requested lattice size is outside the configured dense cap."""


class DimensionError(ValueError):
    """Objects over different ground sets were mixed."""


# -- exact combinatorics ------------------------------------------------------

@lru_cache(maxsize=None)
def bell(m):
    """Number of set partitions of an m-element set."""
    if m < 0:
        raise ValueError(f"bell() needs m >= 0, got {m}")
    if m == 0:
        return 1
    # Bell triangle
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


@lru_cache(maxsize=None)
def stirling2(n, k):
    """Number of set partitions of an n-element set into exactly k blocks."""
    if n < 0 or k < 0:
        raise ValueError(f"stirling2() needs nonnegative arguments, got ({n}, {k})")
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def falling_factorial(N, k):
    """N (N-1) ... (N-k+1); zero when k > N."""
    return perm(N, k)


# -- partitions ---------------------------------------------------------------

class Partition:
    """A set partition of {0..m-1} in canonical RGS form.

    Hashable and immutable; two partitions are equal iff their restricted
    growth strings are equal.
    """

    __slots__ = ("rgs",)

    def __init__(self, rgs):
        rgs = tuple(rgs)
        if not rgs:
            raise ValueError("Partition needs at least one position")
        seen = 0
        for v in rgs:
            if not 0 <= v <= seen:
                raise ValueError(f"not a restricted growth string: {rgs}")
            if v == seen:
                seen += 1
        object.__setattr__(self, "rgs", rgs)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def from_blocks(cls, blocks, m=None):
        """Build from an iterable of disjoint position blocks covering {0..m-1}."""
        blocks = [sorted(b) for b in blocks]
        positions = sorted(p for b in blocks for p in b)
        if m is None:
            m = len(positions)
        if positions != list(range(m)):
            raise ValueError(f"blocks {blocks} do not partition range({m})")
        rgs = [0] * m
        for label, block in enumerate(sorted(blocks)):  # sort by least element
            for p in block:
                rgs[p] = label
        return cls(rgs)

    @classmethod
    def finest(cls, m):
        return cls(range(m))

    @classmethod
    def coarsest(cls, m):
        return cls([0] * m)

    @property
    def m(self):
        return len(self.rgs)

    @property
    def block_count(self):
        return max(self.rgs) + 1

    @property
    def blocks(self):
        """Blocks as tuples of positions, ordered by least element."""
        out = [[] for _ in range(self.block_count)]
        for pos, label in enumerate(self.rgs):
            out[label].append(pos)
        return tuple(tuple(b) for b in out)

    def merge(self, grouping):
        """Merge blocks along a restricted growth string over the block indices.

        Blocks are numbered by first appearance and so is the grouping, so the
        relabelled string is already canonical.
        """
        return Partition(grouping[b] for b in self.rgs)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.rgs == other.rgs

    def __hash__(self):
        return hash(self.rgs)

    def __repr__(self):
        return f"Partition({format_partition(self)!r})"


def format_partition(pi):
    """Render as 1-based blocks joined by '|', e.g. '13|2|4'."""
    return "|".join("".join(str(p + 1) for p in b) for b in pi.blocks)


def parse_partition(text, m=None):
    """Parse the '13|2|4' block format back into a Partition.

    Elements are single digits except '10', whose digits cannot clash with
    anything else because elements are 1-based; that covers the default cap.
    """
    blocks = []
    for part in text.split("|"):
        if not part:
            raise ValueError(f"empty block in partition text {text!r}")
        block = []
        i = 0
        while i < len(part):
            ch = part[i]
            if not ch.isdigit():
                raise ValueError(f"bad character {ch!r} in partition text {text!r}")
            if ch == "1" and i + 1 < len(part) and part[i + 1] == "0":
                block.append(9)
                i += 2
            elif ch == "0":
                raise ValueError(f"elements are 1-based in {text!r}")
            else:
                block.append(int(ch) - 1)
                i += 1
        blocks.append(block)
    return Partition.from_blocks(blocks, m=m)


def _rgs_strings(m):
    """All restricted growth strings of length m, lexicographic."""
    out = []
    rgs = [0] * m

    def grow(i, width):
        if i == m:
            out.append(tuple(rgs))
            return
        for v in range(width + 1):
            rgs[i] = v
            grow(i + 1, width + (v == width))

    grow(0, 0)
    return out


@lru_cache(maxsize=None)
def _groupings(b):
    """One row (rgs, k, groups) per grouping of b blocks, in _rgs_strings(b) order.

    rgs sends block i into merged block rgs[i], k counts the merged blocks, and
    groups[g] lists, ascending, the blocks merged into g.  _incidence_entries
    does not read it: kept beside a dense matrix, it raised the peak RSS.
    """
    rows = []
    for rgs in _rgs_strings(b):
        groups = [[] for _ in range(max(rgs, default=-1) + 1)]
        for i, g in enumerate(rgs):
            groups[g].append(i)
        rows.append((rgs, len(groups), tuple(map(tuple, groups))))
    return tuple(rows)


class LatticeIndex:
    """Linear order on all of Pi(m): decreasing block count, then lex on RGS.

    The finest partition comes first and the coarsest last, making the zeta
    and sampling matrices lower triangular.
    """

    def __init__(self, m, partitions):
        self.m = m
        self.partitions = tuple(partitions)
        self._position = {p: i for i, p in enumerate(self.partitions)}

    def __len__(self):
        return len(self.partitions)

    def __iter__(self):
        return iter(self.partitions)

    def __getitem__(self, i):
        return self.partitions[i]

    def position(self, pi):
        try:
            return self._position[pi]
        except KeyError:
            raise DimensionError(f"{pi!r} is not an element of Pi({self.m})") from None


def _check_cap(m):
    if m < 1 or m > DEFAULT_CAP:
        raise CapExceededError(
            f"m={m} outside supported range 1..{DEFAULT_CAP} "
            f"(Bell({m}) = {bell(max(m, 0))} partitions)"
        )


@lru_cache(maxsize=None)
def enumerate_partitions(m):
    """All Bell(m) partitions of {0..m-1} in canonical order."""
    _check_cap(m)
    parts = [Partition(r) for r in _rgs_strings(m)]
    parts.sort(key=lambda p: (-p.block_count, p.rgs))
    return LatticeIndex(m, parts)


def coarsenings(pi):
    """All partitions pi_tilde with pi <= pi_tilde, pi included.

    Produced by merging blocks of pi along every set partition of its block
    set; the count is Bell(#pi).
    """
    return [pi.merge(rgs) for rgs, _, _ in _groupings(pi.block_count)]


def cover_edges(index):
    """Hasse diagram edges (finer, coarser) of the refinement order.

    pi is covered by exactly the partitions obtained by merging two of its
    blocks: blocks a < b merge along the grouping i -> i below b, b -> a and
    i -> i - 1 above b.
    """
    edges = []
    for pi in index:
        k = pi.block_count
        for a in range(k):
            for b in range(a + 1, k):
                grouping = [*range(b), a, *range(b, k - 1)]
                edges.append((pi, pi.merge(grouping)))
    return edges


# -- incidence matrices -------------------------------------------------------

class IncidenceMatrix:
    """Dense Bell(m) x Bell(m) matrix over a LatticeIndex, zero off the order."""

    def __init__(self, index, entries, kind):
        self.index = index
        self.entries = entries
        self.kind = kind

    @property
    def m(self):
        return self.index.m

    def entry(self, sigma, pi):
        return self.entries[self.index.position(sigma)][self.index.position(pi)]

    def matvec(self, vec):
        return _dense_matvec(self.entries, vec)


def _incidence_entries(index, weight):
    """entries[position(pi)][col] = weight(sigma, pi, grouping) for pi >= sigma, else 0.

    grouping is the RGS over sigma's blocks that merges them into pi.
    """
    n = len(index)
    entries = [[0] * n for _ in range(n)]
    for col, sigma in enumerate(index):
        for grouping in _rgs_strings(sigma.block_count):
            pi = sigma.merge(grouping)
            entries[index.position(pi)][col] = weight(sigma, pi, grouping)
    return entries


def _dense_matvec(entries, vec):
    """entries . vec over exact or float scalars, skipping zero entries."""
    vec = list(vec)
    n = len(entries[0]) if entries else 0
    if len(vec) != n:
        raise DimensionError(f"vector of length {len(vec)} against {n} matrix columns")
    return [sum(row[j] * vec[j] for j in range(n) if row[j]) for row in entries]


def zeta_matrix(m):
    """0/1 incidence matrix of refinement: entry(sigma, pi) = 1 iff pi <= sigma.

    Under the finest-first order this is lower triangular with unit diagonal;
    the coarsest partition's row is all ones.
    """
    index = enumerate_partitions(m)
    return IncidenceMatrix(index, _incidence_entries(index, lambda *_: 1), "zeta")


def _mobius_weight(grouping):
    # prod over pi-blocks of (-1)^(b-1) (b-1)!, b = sigma-blocks merged into it
    return prod((-1) ** (b - 1) * factorial(b - 1) for b in Counter(grouping).values())


def mobius_matrix(m):
    """Exact integer inverse of the zeta matrix, by the product formula.

    The interval [sigma, pi] is a product of partition lattices, one per block
    of pi, so mu(sigma, pi) factors over those blocks (Stanley, EC1, 3.10).
    """
    index = enumerate_partitions(m)
    entries = _incidence_entries(index, lambda sigma, pi, grouping: _mobius_weight(grouping))
    return IncidenceMatrix(index, entries, "mobius")
