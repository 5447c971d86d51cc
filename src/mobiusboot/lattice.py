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
from operator import itemgetter

# Matrices store only their comparable cells (167 894 at m = 8), so the cap
# guards the dense artifact, not memory: every row is written out in full, and
# lattice --m 8 writes 69 MB of CSV and 345 MB of JSON.  At m = 9 the two
# matrices would hold 2 x 4.5e8 written cells.
DEFAULT_CAP = 8

# A term of b blocks merges along the Bell(b) rows of _groupings(b): b = 10
# takes 0.3 s and 52 MB to tabulate, b = 11 2.1 s and 254 MB, b = 13 several GB.
BLOCK_CAP = 10


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


def check_block_cap(terms):
    """Raise CapExceededError if one of the terms has more than BLOCK_CAP blocks."""
    most = max(map(len, terms), default=0)
    if most > BLOCK_CAP:
        raise CapExceededError(
            f"a term has {most} blocks; at most {BLOCK_CAP} per term are supported"
        )


@lru_cache(maxsize=None)
def _groupings(b):
    """One row (rgs, k, masks) per grouping of b blocks, in _rgs_strings(b) order.

    rgs sends block i into merged block rgs[i], k counts the merged blocks, and
    bit i of masks[g] is set iff block i merges into g.  An operator's weight
    law reads (b, k, rgs) once per row: _incidence_matrix for the dense
    matrices and resampling's merge plans for the term walk.
    """
    rows = []
    for rgs in _rgs_strings(b):
        masks = [0] * (max(rgs, default=-1) + 1)
        for i, g in enumerate(rgs):
            masks[g] |= 1 << i
        rows.append((rgs, len(masks), tuple(masks)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _lattice_rgs(m):
    """Every RGS of length m in LatticeIndex order: decreasing block count, then lex."""
    return tuple(sorted(_rgs_strings(m), key=lambda rgs: (-max(rgs), rgs)))


@lru_cache(maxsize=None)
def _coarsening_rows(m):
    """Per column sigma of enumerate_partitions(m), in index order, the positions
    of sigma's merges: one per _groupings(b) row, in that order, b = #sigma.

    Zeta, Moebius and the dense S read this one table per m, so the merged RGS
    of each comparable pair is looked up once per process, not once per build.
    """
    order = _lattice_rgs(m)
    if m == 1:  # itemgetter of one item gives that item, not a 1-tuple
        return ((0,),)
    position = {rgs: i for i, rgs in enumerate(order)}
    table = []
    for rgs in order:
        merged = itemgetter(*rgs)  # grouping -> the merged RGS, as a tuple
        table.append(tuple([position[merged(g)] for g, _, _ in _groupings(max(rgs) + 1)]))
    return tuple(table)


@lru_cache(maxsize=None)
def _support_rows(m):
    """Per row pi of enumerate_partitions(m), the increasing column positions sigma <= pi.

    The transpose of _coarsening_rows(m): the cells where an incidence matrix
    of the refinement order may be nonzero.
    """
    rows = [[] for _ in range(bell(m))]
    for col, coarser in enumerate(_coarsening_rows(m)):
        for row in coarser:
            rows[row].append(col)
    return tuple(map(tuple, rows))


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
        # Bell(m) is named while it is short: the triangle is O(m^2) big-int
        # additions, and Bell(2000) has more digits than str() prints
        count = f" (Bell({m}) = {bell(m)} partitions)" if 0 <= m <= 20 else ""
        raise CapExceededError(f"m={m} outside supported range 1..{DEFAULT_CAP}{count}")


@lru_cache(maxsize=None)
def enumerate_partitions(m):
    """All Bell(m) partitions of {0..m-1} in canonical order."""
    _check_cap(m)
    return LatticeIndex(m, map(Partition, _lattice_rgs(m)))


def coarsenings(pi):
    """All partitions pi_tilde with pi <= pi_tilde, pi included.

    Produced by merging blocks of pi along every set partition of its block
    set; the count is Bell(#pi).
    """
    return [pi.merge(rgs) for rgs, _, _ in _groupings(pi.block_count)]


def cover_edges(partitions):
    """Hasse diagram edges (finer, coarser) of the refinement order, per partition given.

    pi is covered by exactly the partitions obtained by merging two of its
    blocks a < c, listed by (a, c).  Over a whole LatticeIndex each cover is
    read from the coarsening table; any other partitions, of any m, are merged.
    """
    if isinstance(partitions, LatticeIndex):
        return [
            (pi, partitions[rows[g]])
            for pi, rows in zip(partitions, _coarsening_rows(partitions.m))
            for g in _pair_merges(pi.block_count)
        ]
    return [
        (pi, pi.merge(grouping))
        for pi in partitions
        for grouping in _pair_groupings(pi.block_count)
    ]


def _pair_groupings(b):
    """The groupings of b blocks that merge two blocks a < c, ordered by (a, c).

    Blocks a < c merge along the grouping i -> i below c, c -> a and i -> i - 1
    above c.
    """
    return [(*range(c), a, *range(c, b - 1)) for a in range(b) for c in range(a + 1, b)]


@lru_cache(maxsize=None)
def _pair_merges(b):
    """Row numbers in _groupings(b) of _pair_groupings(b)."""
    row = {rgs: g for g, (rgs, _, _) in enumerate(_groupings(b))}
    return tuple(row[grouping] for grouping in _pair_groupings(b))


# -- incidence matrices -------------------------------------------------------

class IncidenceMatrix:
    """Square matrix whose rows and columns follow index, stored as its cells.

    The index is either a LatticeIndex (a Bell(m) x Bell(m) matrix over the
    refinement order) or the levels 1..m (the level-sum compression of S).
    Row i stores columns[i], increasing column positions, and values[i]; every
    other cell is the int 0.  The builders store exactly support(), zero
    weights included: zeta, Moebius and S are elements of the order's incidence
    algebra (Stanley, EC1, 3.6), and the level matrix is upper triangular.
    """

    __slots__ = ("index", "columns", "values", "_entries")

    def __init__(self, index, columns, values):
        self.index, self.columns, self.values, self._entries = index, columns, values, None

    def row(self, i):
        """Dense row i, built from its stored cells alone."""
        row = [0] * len(self.index)
        for j, v in zip(self.columns[i], self.values[i]):
            row[j] = v
        return row

    @property
    def entries(self):
        """Dense rows, built on first access; Bell(8)^2 cells take 137 MB of list slots."""
        if self._entries is None:
            self._entries = [self.row(i) for i in range(len(self.index))]
        return self._entries

    def support(self):
        """Per row, the increasing column positions of the cells that may be nonzero.

        Over a LatticeIndex, row pi's columns sigma <= pi; over the levels,
        row i's columns j >= i.
        """
        if isinstance(self.index, LatticeIndex):
            return _support_rows(self.index.m)
        n = len(self.index)
        return tuple(tuple(range(i, n)) for i in range(n))

    def matvec(self, vec):
        """matrix . vec over exact or float scalars, skipping zero cells."""
        vec = list(vec)
        n = len(self.index)
        if len(vec) != n:
            raise DimensionError(f"vector of length {len(vec)} against {n} matrix columns")
        return [
            sum(v * vec[j] for j, v in zip(cols, vals) if v)
            for cols, vals in zip(self.columns, self.values)
        ]


def _incidence_matrix(index, weight):
    """The matrix with weight(b, k, grouping) at (position(pi), col) for pi >= sigma.

    weight is an operator's law: 1 for zeta, _mobius_weight(grouping) for
    Moebius, and resampling's S law at N for the dense S.  sigma (column col)
    has b blocks, grouping is the RGS over them that merges them into pi, and
    k is pi's block count.  Every comparable cell is stored, zero weights
    included, so each row's columns are its _support_rows(m) tuple.  The
    weight is worked out once per _groupings(b) row and shared by every column
    with b blocks, one run of stirling2(m, b) in the index.  The columns are
    visited in order and each one's weights are appended to the rows of its
    _coarsening_rows entry, so no merged RGS is looked up per cell.
    """
    m = index.m
    table = _coarsening_rows(m)
    values = [[] for _ in range(len(index))]
    appends = [vals.append for vals in values]
    col = 0
    for b in range(m, 0, -1):
        weights = [weight(b, k, grouping) for grouping, k, _ in _groupings(b)]
        for rows in table[col:col + stirling2(m, b)]:
            for row, w in zip(rows, weights):
                appends[row](w)
        col += stirling2(m, b)
    return IncidenceMatrix(index, _support_rows(m), values)


def zeta_matrix(m):
    """0/1 incidence matrix of refinement: entry(sigma, pi) = 1 iff pi <= sigma.

    Under the finest-first order this is lower triangular with unit diagonal;
    the coarsest partition's row is all ones.
    """
    return _incidence_matrix(enumerate_partitions(m), lambda b, k, grouping: 1)


def _mobius_weight(grouping):
    # prod over pi-blocks of (-1)^(b-1) (b-1)!, b = sigma-blocks merged into it
    return prod((-1) ** (b - 1) * factorial(b - 1) for b in Counter(grouping).values())


def mobius_matrix(m):
    """Exact integer inverse of the zeta matrix, by the product formula.

    The interval [sigma, pi] is a product of partition lattices, one per block
    of pi, so mu(sigma, pi) factors over those blocks (Stanley, EC1, 3.10).
    """
    return _incidence_matrix(
        enumerate_partitions(m), lambda b, k, grouping: _mobius_weight(grouping)
    )
