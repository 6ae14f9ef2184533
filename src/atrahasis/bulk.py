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

The byte streams (the user stream and the node blobs, see cluster) are
plane-major per batch: a batch stores its planes one after another, each
as `stripes` little-endian uint64 words.  Packing a batch is therefore
int.from_bytes of one contiguous slice per plane, and unpacking a join
of int.to_bytes.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
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


class BitMatrix(namedtuple("BitMatrix", "rows ncols selections")):
    """An exact matrix expanded once to its GF(2) bit-matrix: for each output
    plane, the indices of the input planes whose XOR it is.

    rows are the field coefficients (bench/tracer.py counts them), ncols
    their column count, selections a tuple of input plane indices per
    output plane."""

    __slots__ = ()


class BulkField:
    """Bit-sliced matrix application over one binary field."""

    def __init__(self, spec: FieldSpec):
        if spec.kind != BINARY:  # put's check: the store loads no other field
            raise UsageError("cluster storage requires a binary-extension field")
        self.spec = spec
        # coefficient -> its bit-matrix; this name and mul_table's are the
        # ones bench/tracer.py wraps to time block builds
        self._tables: dict[int, tuple[tuple[int, ...], ...]] = {}

    def mul_table(self, c: int) -> tuple[tuple[int, ...], ...]:
        """The m x m GF(2) matrix of multiplication by c, as m rows: row i
        lists the bits b of a symbol v whose XOR is bit i of c*v, those b
        where c * z^b has bit i set.  Column c * z^(b+1) is c * z^b
        shifted, reduced by one XOR of the reduction polynomial when it
        reaches z^m."""
        block = self._tables.get(c)
        if block is None:
            m, poly = self.spec.m, self.spec.reduction_poly
            rows = [[] for _ in range(m)]
            column = c
            for b in range(m):
                bits = column
                while bits:
                    low = bits & -bits
                    rows[low.bit_length() - 1].append(b)
                    bits ^= low
                column <<= 1
                if column >> m:
                    column ^= poly
            block = self._tables[c] = tuple(map(tuple, rows))
        return block

    def expand(self, rows: list[list[int]]) -> BitMatrix:
        """An (r x c) exact matrix, as int rows -> its BitMatrix, for
        applying it to many batches of planes.  Output plane i*m + b selects
        input plane j*m + e for each e in row b of coefficient (i, j)'s
        bit-matrix."""
        m = self.spec.m
        selections = []
        for row in rows:
            blocks = [(j * m, self.mul_table(c)) for j, c in enumerate(row) if c]
            for b in range(m):
                selections.append(tuple([base + e for base, block in blocks
                                         for e in block[b]]))
        return BitMatrix(rows, len(rows[0]) if rows else 0, selections)

    def matmul(self, matrix, planes: Planes) -> Planes:
        """Apply an (r x c) exact matrix, or its BitMatrix, to c*m planes
        -> r*m planes of the same width."""
        if not isinstance(matrix, BitMatrix):
            matrix = self.expand(matrix)
        if len(planes) != matrix.ncols * self.spec.m:
            raise UsageError(f"bulk matmul expects {matrix.ncols * self.spec.m} "
                             f"planes, got {len(planes)}")
        out = Planes(stripes=planes.stripes)
        for selected in matrix.selections:
            if len(selected) > 1:
                out.append(reduce(xor, itemgetter(*selected)(planes)))
            else:
                out.append(planes[selected[0]] if selected else 0)
        return out


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
