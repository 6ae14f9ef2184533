"""Dense exact linear algebra over a FieldSpec.

A vector is a list of canonical ints and a matrix a list of such rows;
nothing here checks the entries again (see fields.FieldSpec.check_value).
All row reduction goes through one incremental engine, Echelon: rank,
the determinant and SpanSolver are thin callers of it, and its inner
loop is the FieldSpec row operation row - f*other.  SpanSolver is the
one solve, target rows restated over fixed generators; every matrix
the code builds is one, and an inverse is the unit rows over square
generators of full rank.  It augments the generators with -I, so the
tail of a reduced target is its coefficient row as it stands; a
generator that reduces to zero leaves in its tail a vanishing
combination, and those tails span the left null space.  Arithmetic is
exact, so the pivot is simply the first nonzero column.
Reduction works on private copies; the caller's rows are never changed.

Echelon packs each row it is given into one Python int, one big-endian
slot of FieldSpec.slot_bytes per entry (entry 0 in the most significant
slot; see fields).  Entry c of an n-entry row is a shift by
(n-1-c)*8*slot_bytes bits and a mask; the pivot is the bit length of
the row shifted past its augmented columns; a row operation is one
FieldSpec.sub_scaled_row on the whole int.  The kept rows are stored as
packed bytes, the operand of that operation.  SpanSolver packs a
target with its tail in place and reads back only the tail.

first_deficient_subset certifies spanning conditions over every subset
of a collection of row blocks: it walks the subsets depth first and
keeps the blocks not yet chosen reduced modulo the span of the prefix,
so a subset costs only the reduction of its last block.  It walks the
smaller side: a set of elements spans a matroid exactly when the rest
is independent in the dual (Oxley, Matroid Theory, 2nd ed., 2011,
sec. 2.1; for codes, MDS iff the dual is MDS, MacWilliams and Sloane,
1977, ch. 11, thm 2).  When the blocks are of one size and all the rows
just reach the target, it walks the complements over the left null
space's columns instead, if that walk is at least two levels
shallower; should the dual walk find a dependent complement, the
primal walk runs to name the first deficient subset, so every answer
is the one the primal walk gives alone.
"""

from __future__ import annotations

from .errors import UsageError
from .fields import FieldSpec


def matvec(spec: FieldSpec, rows: list[list[int]], v: list[int]) -> list[int]:
    """The matrix given by its rows times the column vector v."""
    if rows and len(rows[0]) != len(v):
        raise UsageError(f"matvec of {len(rows[0])} columns with a vector of {len(v)}")
    mul, add = spec.mul, spec.add
    out = []
    for row in rows:
        acc = 0
        for a, b in zip(row, v):
            if a and b:
                acc = add(acc, mul(a, b))
        out.append(acc)
    return out


class Echelon:
    """Incremental row echelon form over the first `width` of `length`
    columns (default: all of them).

    offer() reduces a row against the kept rows in the order they were
    kept; the row is kept when something is left, with its pivot (the
    first nonzero among the first `width` columns) scaled to 1.  Every
    kept row is zero at the pivots of the rows kept before it, so the
    rows stay independent without ever being reordered, and a reduced
    row is zero at every pivot.  Columns past `width` ride along without
    pivoting (SpanSolver's augmented -I records which combination of
    offered rows each kept row is).

    The row being reduced is one packed int and each row operation is
    one FieldSpec.sub_scaled_row on the whole row; kept rows are stored
    as the packed bytes that operation takes, each with the bit offset
    of its pivot slot.  Reduction against them runs in one loop, sweep(),
    which takes blocks of packed rows in one call: it reduces them, and
    keeps what is left of them up to a given rank.
    """

    def __init__(self, spec: FieldSpec, width: int, length: int | None = None):
        self.spec = spec
        self.width = width
        self.length = width if length is None else length
        self._bits = 8 * spec.slot_bytes
        self._mask = (1 << self._bits) - 1
        self._nbytes = self.length * spec.slot_bytes
        self._tail = (self.length - width) * self._bits  # bits of the augmented columns
        self._kept: list[tuple[int, bytes]] = []  # (pivot slot's bit offset, row)
        self.leading = 1  # product of the kept pivot entries before scaling

    def clear(self) -> None:
        """Forget every kept row."""
        self._kept, self.leading = [], 1

    @property
    def rank(self) -> int:
        return len(self._kept)

    @property
    def pivots(self) -> list[int]:
        """The pivot column of each kept row, in the order kept."""
        return [self.width - 1 - (shift - self._tail) // self._bits for shift, _ in self._kept]

    def pack(self, row) -> int:
        """The row as one int of packed slots (see the module docstring)."""
        if len(row) != self.length:
            raise UsageError(f"row of length {len(row)} in an echelon of length {self.length}")
        return int.from_bytes(self.spec.row_bytes(row), "big")

    def sweep(self, blocks, keep: int = 0) -> list[list[int]]:
        """Reduce each packed row of each block in turn against the kept
        rows, keeping what is left of it while fewer than `keep` rows are
        kept.  Per block, the nonzero remainders not kept, in order."""
        spec, kept, mask = self.spec, self._kept, self._mask
        bits, tail, nbytes = self._bits, self._tail, self._nbytes
        sub_scaled = spec.sub_scaled_row
        out = []
        for rows in blocks:
            left = []
            for work in rows:
                for shift, prow in kept:
                    f = work >> shift & mask
                    if f:
                        work = sub_scaled(work, f, prow)
                if not work:
                    continue
                head = (work >> tail).bit_length() if len(kept) < keep else 0
                if not head:
                    left.append(work)
                    continue
                shift = tail + (head - 1) // bits * bits
                lead = work >> shift & mask
                self.leading = spec.mul(self.leading, lead)
                row = work.to_bytes(nbytes, "big")
                if lead != 1:
                    row = spec.scale_row(spec.inv(lead), row)
                kept.append((shift, row))
            out.append(left)
        return out

    def offer(self, row) -> bool:
        """Keep the row if it is independent of the kept rows."""
        rank = len(self._kept)
        self.sweep([[self.pack(row)]], rank + 1)
        return len(self._kept) > rank


def _echelon_of(spec: FieldSpec, rows, width: int) -> Echelon:
    echelon = Echelon(spec, width)
    echelon.sweep([[echelon.pack(row) for row in rows]], width)
    return echelon


def rank_of_rows(spec: FieldSpec, int_rows: list[list[int]]) -> int:
    width = len(int_rows[0]) if int_rows else 0
    return _echelon_of(spec, int_rows, width).rank


def first_deficient_subset(spec: FieldSpec, blocks: list[list[list[int]]],
                           size: int, target: int,
                           base_rows: list[list[int]] = ()) -> tuple | None:
    """First `size`-subset S of range(len(blocks)), in combinations
    order, whose rows base_rows + blocks[i] for i in S have rank below
    `target`; None when every subset reaches it.

    _walk enumerates the chosen side.  When every block has the same
    c > 0 rows and base_rows plus all the blocks have rank exactly
    `target`, the complements can be walked instead: by matroid duality
    a set X of elements spans exactly when E - X is independent in the
    dual matroid (Oxley, Matroid Theory, 2nd ed., 2011, sec. 2.1; its
    MDS case, a code is MDS iff its dual is: MacWilliams and Sloane, The
    Theory of Error-Correcting Codes, 1977, ch. 11, thm 2).  The elements
    are the block rows modulo the span of base_rows, and the dual rows
    are the columns of the left null space of the stacked rows, the
    tails SpanSolver leaves on the rows that reduce to zero.  So S
    reaches `target` exactly when the c*(n - size) dual rows of the
    blocks outside S are independent: the dual walk picks
    (n - size)-subsets with that row count as its target.

    The side is chosen from n, size, c and the row counts.  Both walks
    visit the same C(n, size) leaves; the dual saves the levels above
    them but first pays one elimination of all the rows, so it is taken
    when it is at least two levels shallower, n - size < size - 1 (at
    one level, n = 9 and size = 5, grow_pool ran 8-15% slower), and when
    the rows could reach the target at all, len(base_rows) + size*c >=
    target (else the primal walk fails the first subset at once).  A
    dual walk that meets a dependent complement only proves that some
    subset falls short, so the primal walk then runs and names the first
    one, exactly as it would alone.
    """
    n = len(blocks)
    if not 0 <= size <= n:
        return None
    c = len(blocks[0]) if blocks else 0
    if (n - size < size - 1 and c and len(base_rows) + size * c >= target
            and all(len(block) == c for block in blocks)):
        dual = _dual_blocks(spec, blocks, c, target, base_rows)
        if dual is not None and _walk(spec, dual, n - size, c * (n - size)) is None:
            return None
    return _walk(spec, blocks, size, target, base_rows)


def _dual_blocks(spec: FieldSpec, blocks, c: int, target: int, base_rows) -> list | None:
    """Each block's c rows in the dual matroid of the block rows modulo
    the span of base_rows, or None unless all the rows have rank exactly
    `target`.  Base rows go first, so a null row of theirs is zero on
    the block rows and is dropped."""
    rows = [row for block in blocks for row in block]
    solver = SpanSolver(spec, list(base_rows) + rows, len(rows[0]))
    if solver.rank != target:
        return None
    skip = len(base_rows)
    null = [tail[skip:] for tail in solver.null_rows() if any(tail[skip:])]
    dual = [list(column) for column in zip(*null)] if null else [[] for _ in rows]
    return [dual[i:i + c] for i in range(0, len(dual), c)]


def _walk(spec: FieldSpec, blocks, size: int, target: int,
          base_rows=()) -> tuple | None:
    """first_deficient_subset on the chosen side.

    Walks the subsets depth first, keeping the blocks not yet chosen
    reduced modulo the span of the prefix (a Schur complement kept up to
    date by block elimination).  Choosing block i adds the echelon of
    its reduced rows to the prefix, and the later blocks are reduced
    against those added rows alone, since they are already zero at every
    pivot before them; a subset's rank is the prefix rank plus what its
    last block adds.  A prefix that reaches the target passes with its
    whole subtree.  A prefix that cannot reach it even if every later
    row were independent fails with its whole subtree, and the first
    subset below it is the answer; when the target is the row count,
    that is any dependent prefix.  Every row is packed once, up front.
    """
    n = len(blocks)
    width = next((len(row) for block in (base_rows, *blocks) for row in block), 0)
    most = max(map(len, blocks), default=0)
    # one echelon for the base rows and one for the block chosen at each depth
    base, *chosen = (Echelon(spec, width) for _ in range(size + 1))
    packed = [[base.pack(row) for row in block] for block in blocks]
    base.sweep([[base.pack(row) for row in base_rows]], target)
    rank = base.rank
    if rank >= target:
        return None
    if rank + size * most < target:
        return tuple(range(size))

    def walk(rank: int, later: list, start: int, prefix: tuple) -> tuple | None:
        # later: blocks start.. modulo the span of the base rows and the
        # prefix, which has rank `rank`
        left = size - len(prefix)
        added = chosen[len(prefix)]
        for i in range(start, n - left + 1):
            added.clear()
            added.sweep([later[i - start]], target - rank)
            reach = rank + added.rank
            if reach >= target:
                continue
            if reach + (left - 1) * most < target:
                return prefix + tuple(range(i, i + left))
            found = walk(reach, added.sweep(later[i - start + 1:]), i + 1, prefix + (i,))
            if found is not None:
                return found
        return None

    return walk(rank, base.sweep(packed), 0, ())


def det(spec: FieldSpec, rows: list[list[int]]) -> int:
    """Product of the pivot entries, signed by the parity of the pivot
    column sequence (the rows are never swapped)."""
    if any(len(row) != len(rows) for row in rows):
        raise UsageError("determinant needs a square matrix")
    echelon = _echelon_of(spec, rows, len(rows))
    if echelon.rank < len(rows):
        return 0
    p = echelon.pivots
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
                     if p[i] > p[j])
    return spec.neg(echelon.leading) if inversions % 2 else echelon.leading


class SpanSolver:
    """Repeated membership queries against the span of fixed generators.

    Row-reduces the generator stack once, with generator i augmented by
    -e_i, so that each kept row records minus the combination of input
    generators behind it; each query is then a single reduction, and
    the tail of a reduced (target, 0) is the target's coefficient row.
    The same elimination says which generators are independent of the
    ones before them (those kept), and a generator that reduces to zero
    leaves its tail, a combination of the generators that vanishes: those
    tails are a basis of the left null space.
    """

    def __init__(self, spec: FieldSpec, generators: list[list[int]], width: int):
        for g in generators:
            if len(g) != width:
                raise UsageError("generator length mismatch")
        self.spec = spec
        self.ngens = len(generators)
        self.width = width
        self._echelon = echelon = Echelon(spec, width, width + self.ngens)
        # generator i packed with its tail -e_i, one block each
        bits, minus_one = 8 * spec.slot_bytes, spec.neg(1)
        self._tail = bits * self.ngens
        left = echelon.sweep(
            ([self._packed(g) | minus_one << bits * (self.ngens - 1 - i)]
             for i, g in enumerate(generators)), width)
        # the -1 in its tail never cancels, so a generator is kept or left
        self.kept = [not rest for rest in left]
        self._null = [rest[0] for rest in left if rest]

    @property
    def rank(self) -> int:
        return self._echelon.rank

    def _packed(self, row) -> int:
        """(row, 0) packed: the row's entries shifted past the tail."""
        return int.from_bytes(self.spec.row_bytes(row), "big") << self._tail

    def _tails(self, rows) -> list[list[int]]:
        """The tail entries of packed rows."""
        mask, nbytes = (1 << self._tail) - 1, self.ngens * self.spec.slot_bytes
        return [self.spec.row_values((row & mask).to_bytes(nbytes, "big")) for row in rows]

    def null_rows(self) -> list[list[int]]:
        """The tails of the generators not kept, in order: the combinations
        of the generators that vanish, a basis of all of them."""
        return self._tails(self._null)

    def coefficients_for(self, target: list[int]) -> list[int] | None:
        """Coefficients over the generators, or None if out of span."""
        if len(target) != self.width:
            raise UsageError("target length mismatch")
        # reducing (target, 0) leaves (residual, coefficients)
        left = self._echelon.sweep([[self._packed(target)]])[0]
        work = left[0] if left else 0
        return None if work >> self._tail else self._tails([work])[0]

    def coefficient_rows(self, targets) -> list[list[int]] | None:
        """coefficients_for of every target, or None if one is out of span."""
        rows = [self.coefficients_for(target) for target in targets]
        return None if None in rows else rows
