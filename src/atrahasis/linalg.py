"""Dense exact linear algebra over a FieldSpec.

A vector is a list of canonical ints and a matrix a list of such rows;
nothing here checks the entries again (see fields.FieldSpec.check_value).
All row reduction goes through one incremental engine, Echelon: rank,
the determinant, the inverse, span coefficients and the nullspace are
thin callers of it, and its inner loop is the FieldSpec row operation
row - f*other.  Arithmetic is exact, so the pivot is simply the first
nonzero column.  Reduction works on private copies; the caller's rows
are never changed.

Echelon packs each row it is given into one Python int, one big-endian
slot of FieldSpec.slot_bytes per entry (entry 0 in the most significant
slot; see fields).  Entry c of an n-entry row is a shift by
(n-1-c)*8*slot_bytes bits and a mask; the pivot is the bit length of
the row shifted past its augmented columns; a row operation is one
FieldSpec.sub_scaled_row on the whole int.  The kept rows are stored as
packed bytes, the operand of that operation.  Echelon.rows, reduce()
and reduced() hand rows back as lists of ints.

first_deficient_subset certifies spanning conditions over every subset
of a collection of row blocks: it walks the subsets depth first and
extends a copy of each prefix's echelon, so the subsets sharing a
prefix reduce it once.
"""

from __future__ import annotations

from .errors import UsageError
from .fields import FieldSpec


def dot_ints(spec: FieldSpec, a: list[int], b: list[int]) -> int:
    mul = spec.mul
    add = spec.add
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = add(acc, mul(x, y))
    return acc


def matvec(spec: FieldSpec, rows: list[list[int]], v: list[int]) -> list[int]:
    """The matrix given by its rows times the column vector v."""
    if rows and len(rows[0]) != len(v):
        raise UsageError(f"matvec of {len(rows[0])} columns with a vector of {len(v)}")
    return [dot_ints(spec, row, v) for row in rows]


class Echelon:
    """Incremental row echelon form over the first `width` of `length`
    columns (default: all of them).

    offer() reduces a row against the kept rows in the order they were
    kept; the row is kept when something is left, with its pivot (the
    first nonzero among the first `width` columns) scaled to 1.  Every
    kept row is zero at the pivots of the rows kept before it, so the
    rows stay independent without ever being reordered.  Columns past
    `width` ride along without pivoting (an augmented identity records
    which combination of offered rows each kept row is).

    The row being reduced is one packed int and each row operation is
    one FieldSpec.sub_scaled_row on the whole row; kept rows are stored
    as the packed bytes that operation takes.
    """

    def __init__(self, spec: FieldSpec, width: int, length: int | None = None):
        self.spec = spec
        self.width = width
        self.length = width if length is None else length
        self._bits = 8 * spec.slot_bytes
        self._mask = (1 << self._bits) - 1
        self._nbytes = self.length * spec.slot_bytes
        self._kept: list[bytes] = []
        self._shifts: list[int] = []  # bit offset of each kept row's pivot slot
        self.pivots: list[int] = []
        self.leading = 1  # product of the kept pivot entries before scaling

    @property
    def rank(self) -> int:
        return len(self._kept)

    @property
    def rows(self) -> list[list[int]]:
        return [self.spec.row_values(row) for row in self._kept]

    def copy(self) -> Echelon:
        """An independent echelon with the same kept rows (shared: kept
        rows are immutable bytes)."""
        twin = Echelon(self.spec, self.width, self.length)
        twin._kept = self._kept.copy()
        twin._shifts = self._shifts.copy()
        twin.pivots = self.pivots.copy()
        twin.leading = self.leading
        return twin

    def pack(self, row) -> int:
        """The row as one int of packed slots (see the module docstring)."""
        if len(row) != self.length:
            raise UsageError(f"row of length {len(row)} in an echelon of length {self.length}")
        return int.from_bytes(self.spec.row_bytes(row), "big")

    def _reduce(self, work: int) -> int:
        sub_scaled = self.spec.sub_scaled_row
        mask = self._mask
        for shift, prow in zip(self._shifts, self._kept):
            f = work >> shift & mask
            if f:
                work = sub_scaled(work, f, prow)
        return work

    def reduce(self, row) -> list[int]:
        """The row minus its components along the kept rows."""
        work = self._reduce(self.pack(row))
        return self.spec.row_values(work.to_bytes(self._nbytes, "big"))

    def offer(self, row) -> bool:
        """Keep the row if it is independent of the kept rows."""
        return self.offer_packed(self.pack(row))

    def offer_packed(self, work: int) -> bool:
        """offer() for a row already packed by pack()."""
        work = self._reduce(work)
        bits = self._bits
        tail = (self.length - self.width) * bits
        head = (work >> tail).bit_length()
        if not head:
            return False
        slot = (head - 1) // bits
        shift = tail + slot * bits
        spec = self.spec
        lead = work >> shift & self._mask
        self.leading = spec.mul(self.leading, lead)
        row = work.to_bytes(self._nbytes, "big")
        if lead != 1:
            row = spec.scale_row(spec.inv(lead), row)
        self._kept.append(row)
        self._shifts.append(shift)
        self.pivots.append(self.width - 1 - slot)
        return True

    def reduced(self) -> tuple[list[int], list[list[int]]]:
        """(pivot columns, rows) of the reduced row echelon form.

        Back-substitution clears each pivot column in the rows kept
        before it (the rows kept after it are zero there already); sorted
        by pivot column, the rows are then the unique reduced form of the
        kept rows' span.
        """
        spec, mask, nbytes = self.spec, self._mask, self._nbytes
        sub_scaled = spec.sub_scaled_row
        rows = [int.from_bytes(row, "big") for row in self._kept]
        for j in range(len(rows) - 1, 0, -1):
            shift, prow = self._shifts[j], rows[j].to_bytes(nbytes, "big")
            for i in range(j):
                f = rows[i] >> shift & mask
                if f:
                    rows[i] = sub_scaled(rows[i], f, prow)
        by_pivot = sorted(zip(self.pivots, rows))
        return ([c for c, _ in by_pivot],
                [spec.row_values(row.to_bytes(nbytes, "big")) for _, row in by_pivot])


def _echelon_of(spec: FieldSpec, rows, width: int, length: int | None = None) -> Echelon:
    echelon = Echelon(spec, width, length)
    for row in rows:
        echelon.offer(row)
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

    Walks the subsets depth first, each one extending its prefix's
    echelon, so subsets sharing a prefix share its reduction.  A prefix
    that reaches the target passes with its whole subtree.  A prefix
    that cannot reach it even if every later row were independent fails
    with its whole subtree, and the first subset below it is the answer;
    when the target is the row count, that is any dependent prefix.
    Every row is packed once, up front.
    """
    n = len(blocks)
    if not 0 <= size <= n:
        return None
    width = next((len(row) for block in (base_rows, *blocks) for row in block), 0)
    most = max(map(len, blocks), default=0)
    root = Echelon(spec, width)
    packed = [[root.pack(row) for row in block] for block in blocks]

    def extend(echelon: Echelon, block) -> Echelon:
        echelon = echelon.copy()
        for row in block:
            if echelon.rank >= target:
                break
            echelon.offer_packed(row)
        return echelon

    def walk(echelon: Echelon, start: int, prefix: tuple) -> tuple | None:
        left = size - len(prefix)
        if echelon.rank >= target:
            return None
        if echelon.rank + left * most < target:
            return prefix + tuple(range(start, start + left))
        for i in range(start, n - left + 1):
            found = walk(extend(echelon, packed[i]), i + 1, prefix + (i,))
            if found is not None:
                return found
        return None

    return walk(extend(root, [root.pack(row) for row in base_rows]), 0, ())


def det(spec: FieldSpec, rows: list[list[int]]) -> int:
    """Product of the pivot entries, signed by the parity of the pivot
    column sequence (the rows are never swapped)."""
    if any(len(row) != len(rows) for row in rows):
        raise UsageError("determinant needs a square matrix")
    echelon = Echelon(spec, len(rows))
    for row in rows:
        if not echelon.offer(row):
            return 0
    p = echelon.pivots
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
                     if p[i] > p[j])
    return spec.neg(echelon.leading) if inversions % 2 else echelon.leading


def invert(spec: FieldSpec, rows: list[list[int]]) -> list[list[int]] | None:
    """Inverse of a square matrix, or None when singular."""
    n = len(rows)
    aug = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    echelon = _echelon_of(spec, aug, n, 2 * n)
    if echelon.rank < n:
        return None
    return [row[n:] for row in echelon.reduced()[1]]


def nullspace_with_free(spec: FieldSpec, rows: list[list[int]]
                        ) -> tuple[list[list[int]], list[int]]:
    """Canonical kernel basis from the reduced echelon form, plus the
    free columns it is systematic in.

    The basis vector paired with free column f has a 1 at f and zeros at
    every other free column, so coordinates in this basis can be read
    off any kernel vector at the free positions.
    """
    ncols = len(rows[0]) if rows else 0
    pivots, reduced = _echelon_of(spec, rows, ncols).reduced()
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(reduced, pivots):
            v[c] = spec.neg(row[f])
        basis.append(v)
    return basis, free


class SpanSolver:
    """Repeated membership queries against the span of fixed generators.

    Row-reduces the generator stack once, with an augmented identity
    that records the combination of input generators behind each kept
    row; each query is then a single reduction.
    """

    def __init__(self, spec: FieldSpec, generators: list[list[int]], width: int):
        for g in generators:
            if len(g) != width:
                raise UsageError("generator length mismatch")
        self.spec = spec
        self.ngens = len(generators)
        self.width = width
        self._echelon = _echelon_of(
            spec, (list(g) + [1 if i == j else 0 for j in range(self.ngens)]
                   for i, g in enumerate(generators)), width, width + self.ngens)

    @property
    def rank(self) -> int:
        return self._echelon.rank

    def coefficients_for(self, target: list[int]) -> list[int] | None:
        """Coefficients over the generators, or None if out of span."""
        if len(target) != self.width:
            raise UsageError("target length mismatch")
        # reducing (target, 0) leaves (residual, -coefficients)
        work = self._echelon.reduce(list(target) + [0] * self.ngens)
        if any(work[:self.width]):
            return None
        neg = self.spec.neg
        return [neg(v) for v in work[self.width:]]

    def coefficient_rows(self, targets) -> list[list[int]] | None:
        """coefficients_for of every target, or None if one is out of span."""
        rows = [self.coefficients_for(target) for target in targets]
        return None if None in rows else rows
