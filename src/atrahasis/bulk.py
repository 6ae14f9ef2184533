"""Bit-sliced kernels for applying small exact matrices across many chunks
at once, on bit-planes held as Python ints.

The storage layer works on thousands of M-symbol chunks; every per-chunk
operation (encode, node extraction, help, repair, decode) is one fixed
matrix over GF(2^m) applied to a symbol column per chunk.  Those matrix
applications are bit-sliced: multiplication by a constant c is
GF(2)-linear on the m bits of a symbol, so each coefficient becomes its
m x m bit-matrix and the whole matrix an (r*m x c*m) GF(2) matrix.

Data never exists as symbol values here: it is held as bit-planes, the
packet layout of Cauchy Reed-Solomon coding (Blomer et al., "An
XOR-based erasure-resilient coding scheme", ICSI TR-95-048, 1995; Plank
& Xu, NCA 2006).  A stripe is cluster.STRIPE_CHUNKS = 64 consecutive
chunks, one per bit of a little-endian uint64 plane word.  A batch of
`stripes` stripes holds, for each symbol row j and bit b, one plane
j*m + b: `stripes` words, read as one Python int whose bit 64*w + t is
bit b of symbol j of the batch's chunk 64*w + t.  Each output plane of
matmul is the XOR of the input planes its bit-matrix row selects, and
CPython runs each XOR of two whole planes in C.  A caller that applies
one matrix to many batches expands it once (BulkField.expand) and
passes the BitMatrix to matmul.  One code path serves every m = 1..16.
Results are bit-identical to the scalar path in linalg, which the tests
cross-check.

expand compiles a matrix into one XOR program.  Row b of coefficient
(i, j)'s bit-matrix, its row mask, selects planes of input symbol j, and
the same mask recurs wherever column j holds coefficients with a common
row.  A column whose masks recur enough gets a table, the Four Russians
idea applied per input symbol (Albrecht, Bard & Hart, "Efficient dense
Gaussian elimination over GF(2)", ACM TOMS 2010): every row mask of the
column is built once, from the entry of its lower bits plus one plane,
and each output plane then XORs in one entry per nonzero coefficient
instead of one plane per set bit.  The choice is counted per column
(Plank, Schuman & Robison, "Heuristics for optimizing matrix-based
erasure codes", DSN 2012): the table is taken when the XORs its uses
save are at least twice what its builds can cost, so at m = 4 the store's
wide columns take one, while at m = 12, where masks seldom recur, and in
the small send matrices of a repair, the columns stay plain.  The plain
columns form the plain selection, one XOR reduction per output plane;
a matrix with no table is that selection alone.  matmul runs the tables
one input symbol at a time, so only one symbol's entries are live
besides the outputs, which keeps the working set small: a plane of a
full batch (cluster.BATCH_STRIPES = 512 stripes) is 4 KiB.

The byte streams (the user stream and the node blobs, see cluster) are
plane-major per batch: a batch stores its planes one after another, each
as `stripes` little-endian uint64 words.  Packing a batch is therefore
int.from_bytes of one contiguous slice per plane, and unpacking a join
of int.to_bytes.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import cache, reduce
from itertools import chain, compress
from operator import itemgetter, xor

from .errors import UsageError
from .fields import BINARY, FieldSpec


class Planes(list):
    """One batch of bit-planes: a list of ints, each `stripes` uint64 words
    wide.  shape and itemsize describe it as a (planes, words) array of
    8-byte words; bench/tracer.py reads them to count bytes."""

    itemsize = 8  # bytes of one plane word

    def __init__(self, planes=(), stripes: int = 0):
        super().__init__(planes)
        self.stripes = stripes

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.stripes

    def split(self, size: int) -> list[Planes]:
        """Consecutive groups of `size` planes, as batches of the same width."""
        return [Planes(self[i:i + size], self.stripes)
                for i in range(0, len(self), size)]


class BitMatrix(namedtuple("BitMatrix", "rows ncols program starts")):
    """An exact matrix compiled once to an XOR program over bit-planes.

    rows are the field coefficients (bench/tracer.py counts them), ncols
    their column count.  program is (selections, steps).  Output plane k
    starts as the XOR of the input planes selections[k] lists.  Each
    step (base, chains, coefficients) then serves one input symbol: its
    table maps row masks to planes, one-bit mask 1 << e being input plane
    base + e, and each chain (mask, link, top) adds the entry of link XOR
    that of top; each (o, terms) of coefficients XORs, for each (b, mask)
    of terms, the entry of mask into output plane o + b.  The first
    starts[i] pairs of step i feed rows that are still zero, rows with
    no plain coefficient that no earlier step fed: their entries are
    assigned, not copied by an XOR with 0."""

    __slots__ = ()


def require_binary(spec: FieldSpec) -> None:
    """Reject a field the bit-sliced kernel cannot run, any but GF(2^m)."""
    if spec.kind != BINARY:
        raise UsageError("cluster storage requires a binary-extension field")


class BulkField:
    """Bit-sliced matrix application over one binary field."""

    def __init__(self, spec: FieldSpec):
        require_binary(spec)
        self.spec = spec
        m, poly = spec.m, spec.reduction_poly
        # The rows of a bit-matrix side by side in one int, row b in bits
        # b*w .. b*w + m - 1 of a w-bit field.  Row b of z^s is bits s ..
        # s + m - 1 of span b, whose bit t is bit b of z^t (t < 2m - 1), so
        # the rows of z^s are the spans shifted right by s: what spills
        # into a field from the next lands at bit w - s > m.  Below t = m,
        # z^t is 1 << t, so only the m - 1 reduced powers take a loop.
        w = 8 if m <= 4 else 16 if m <= 8 else 32
        spans, column = sum(1 << b * (w + 1) for b in range(m)), 1 << m - 1
        for t in range(m, 2 * m - 1):
            column <<= 1
            if column >> m:
                column ^= poly
            bits = column
            while bits:
                low = bits & -bits
                spans |= 1 << (low.bit_length() - 1) * w + t
                bits ^= low
        self._powers = {1 << s: spans >> s for s in range(m)}
        self._keep = int.from_bytes(((1 << m) - 1).to_bytes(w // 8, "little") * m, "little")
        self._layout = (m * w // 8, "BHI"[w // 16])
        # coefficient -> its bit-matrix; this name and mul_table's are the
        # ones bench/tracer.py wraps to time block builds
        self._tables: dict[int, tuple[int, ...]] = {}
        self._units = [1 << e for e in range(m)]
        # coefficient -> its rows as terms (b, row mask), the set bits of
        # each row, and the XORs its plain selection spends beyond one a row
        self._terms: dict[int, tuple] = {}
        self._bits: dict[int, list] = {}
        self._excess: dict[int, int] = {0: 0}
        self._chains: dict[frozenset, tuple] = {}  # column masks -> builds

    def mul_table(self, c: int) -> tuple[int, ...]:
        """The m x m GF(2) matrix of multiplication by c, as m row masks:
        bit e of row b is set when bit b of c * z^e is, so bit b of c*v is
        the parity of v & row b.  Multiplication is GF(2)-linear in c, so
        the rows of c are those of c without its lowest bit XOR those of
        that bit, z^s: one XOR of packed rows per bit of c."""
        block = self._tables.get(c)
        if block is None:
            rows, bits = 0, c
            while bits:
                low = bits & -bits
                rows ^= self._powers[low]
                bits ^= low
            size, code = self._layout
            block = self._tables[c] = tuple(memoryview(
                (rows & self._keep).to_bytes(size, sys.byteorder)).cast(code))
        return block

    def expand(self, rows: list[list[int]]) -> BitMatrix:
        """An (r x c) exact matrix, as int rows -> its BitMatrix, for
        applying it to many batches of planes.

        Output plane i*m + b is the XOR over j of the input planes j*m + e
        selected by row b of coefficient (i, j)'s bit-matrix, its row mask.
        Column j is either plain or tabled.  Plain, each row mask joins
        the plain selection of its output plane.  Tabled, input symbol j
        gets a step whose table holds every row mask of the column, each
        built from the entry of its lower bits (built first, the same way)
        XOR the plane of its top bit, and each use XORs in one entry.  A
        mask of p bits costs at most p - 1 builds and saves p - 1 XORs per
        use, so a column is tabled when its uses save at least twice what
        its distinct masks can cost: the table then saves at least as many
        XORs as it builds.  A column that repeats no mask stays plain."""
        m = self.spec.m
        blocks, terms, bits, excess = self._tables, self._terms, self._bits, self._excess
        chunks = _bit_chunks()
        for c in set(chain.from_iterable(rows)):
            if c and c not in terms:
                block = self.mul_table(c)
                terms[c] = tuple(enumerate(block))
                bits[c] = [chunks[0][mask & 15] + chunks[1][mask >> 4 & 15]
                           + chunks[2][mask >> 8 & 15] + chunks[3][mask >> 12]
                           for mask in block]
                # a row mask's plain selection spends its bits less one
                # XORs beyond the one that adds it to its output plane
                excess[c] = sum(map(int.bit_count, block)) - m
        # a coefficient's m row masks differ, so a column's distinct masks
        # cost at least what its costliest coefficient spends: only a
        # column that spends twice that can take a table.  The whole
        # matrix is tested for such columns first; the small matrices of
        # a repair seldom have one, and then every column is plain.
        get = excess.__getitem__
        candidates = [(j, total) for j, spent in enumerate(zip(*[map(get, row) for row in rows]))
                      if 0 < 2 * max(spent) <= (total := sum(spent))]
        steps, plain = [], [True] * (len(rows[0]) if rows else 0)
        if candidates:
            offsets, columns = range(0, len(rows) * m, m), list(zip(*rows))
        for j, total in candidates:
            column = columns[j]
            coefficients = list(compress(column, column))
            masks = frozenset(chain.from_iterable(map(blocks.__getitem__, coefficients)))
            if 2 * (sum(map(int.bit_count, masks)) - len(masks)) > total:
                continue
            chains = self._chains.get(masks)
            if chains is None:
                chains = self._chains[masks] = _prefix_chains(masks)
            steps.append((j * m, chains, tuple(
                zip(compress(offsets, column), map(terms.__getitem__, coefficients)))))
            plain[j] = False
        selections = []
        for row in rows:
            parts = [(j * m, bits[c]) for j, c in enumerate(row) if c and plain[j]]
            for b in range(m):
                selections.append(tuple([base + e for base, row_bits in parts
                                         for e in row_bits[b]]))
        # a nonzero coefficient has no zero row mask, so a row's planes
        # are all selected or all zero; each step lists first the zero
        # rows it starts
        starts, seeded = [], {o for o in range(0, len(selections), m) if selections[o]}
        for i, (base, chains, coefficients) in enumerate(steps):
            first = [pair for pair in coefficients if pair[0] not in seeded]
            rest = [pair for pair in coefficients if pair[0] in seeded]
            seeded.update(o for o, _ in first)
            steps[i] = (base, chains, tuple(first + rest))
            starts.append(len(first))
        return BitMatrix(rows, len(rows[0]) if rows else 0, (tuple(selections), tuple(steps)),
                         tuple(starts))

    def matmul(self, matrix, planes: Planes) -> Planes:
        """Apply an (r x c) exact matrix, or its BitMatrix, to c*m planes
        -> r*m planes of the same width: the plain selections first, then
        the table steps one input symbol at a time, so that only that
        symbol's table is live."""
        if not isinstance(matrix, BitMatrix):
            matrix = self.expand(matrix)
        m = self.spec.m
        if len(planes) != matrix.ncols * m:
            raise UsageError(f"bulk matmul expects {matrix.ncols * m} "
                             f"planes, got {len(planes)}")
        selections, steps = matrix.program
        out = []
        for selected in selections:
            if len(selected) > 1:
                out.append(reduce(xor, itemgetter(*selected)(planes)))
            else:
                out.append(planes[selected[0]] if selected else 0)
        units = self._units
        for (base, chains, coefficients), fresh in zip(steps, matrix.starts):
            table = dict(zip(units, planes[base:base + m]))
            for mask, link, top in chains:
                table[mask] = table[link] ^ table[top]
            for o, block in coefficients[:fresh]:
                for b, mask in block:
                    out[o + b] = table[mask]
            for o, block in coefficients[fresh:]:
                for b, mask in block:
                    out[o + b] ^= table[mask]
        return Planes(out, planes.stripes)


def _prefix_chains(masks: frozenset) -> tuple[tuple[int, int, int], ...]:
    """The builds (mask, link, top) that give each mask a table entry: link
    is mask without its top bit, itself built first when it has two or
    more bits, so each entry costs one XOR."""
    known, builds = set(), []
    for mask in masks:
        links = []
        while mask & mask - 1 and mask not in known:
            known.add(mask)
            top = 1 << mask.bit_length() - 1
            links.append((mask, mask ^ top, top))
            mask ^= top
        builds += reversed(links)
    return tuple(builds)


@cache
def _bit_chunks() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The set bits of every 4-bit chunk value, at offsets 0, 4, 8 and 12
    (a row mask has m <= 16 bits)."""
    tables = []
    for offset in range(0, 16, 4):
        table = [()]
        for e in range(offset, offset + 4):
            table += [bits + (e,) for bits in table]
        tables.append(tuple(table))
    return tuple(tables)


def bytes_to_symbols(stream, rows: int) -> Planes:
    """One batch of a plane-major byte stream -> its `rows` planes, the
    stream zero-padded to whole stripes of rows words."""
    width = 8 * -(-len(stream) // (8 * rows))  # bytes of one plane
    if len(stream) != rows * width:
        stream = bytes(stream).ljust(rows * width, b"\x00")
    view = memoryview(stream)
    return Planes([int.from_bytes(view[p * width:(p + 1) * width], "little")
                   for p in range(rows)], width // 8)


def symbols_to_bytes(planes: Planes) -> bytes:
    """Inverse of bytes_to_symbols, padding included."""
    width = 8 * planes.stripes
    return b"".join([p.to_bytes(width, "little") for p in planes])
