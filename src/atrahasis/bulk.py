"""Vectorized kernels for applying small exact matrices across many
chunks at once, on bit-planes.

The storage layer works on thousands of M-symbol chunks; every per-chunk
operation (encode, node extraction, help, repair, decode) is one fixed
matrix over GF(2^m) applied to a symbol column per chunk.  Those matrix
applications are bit-sliced: multiplication by a constant c is
GF(2)-linear on the m bits of a symbol, so each coefficient becomes its
m x m bit-matrix and the whole matrix an (r*m x c*m) GF(2) matrix.

Data never exists as symbol values here: it is held as bit-planes, the
packet layout of Cauchy Reed-Solomon coding (Blomer et al., "An
XOR-based erasure-resilient coding scheme", ICSI TR-95-048, 1995; Plank
& Xu, NCA 2006).  A stripe is store.STRIPE_CHUNKS = 64 consecutive
chunks, one per bit of a plane word; for each symbol row j and bit b it
holds one little-endian uint64 word, plane j*m + b, whose bit t is bit b
of symbol j of chunk 64*s + t.  An array of planes has shape (rows*m,
stripes), and each output plane of matmul is the XOR of the input planes
its bit-matrix row selects.  A caller that applies one matrix to many
batches of stripes expands it once (BulkField.expand) and passes the
BitMatrix to matmul.  One code path serves every m = 1..16.  Results are
bit-identical to the scalar path in linalg, which the tests cross-check.

The user's byte stream is already in this layout: read as little-endian
uint64 words, stripe s is M*m consecutive words, so packing and
unpacking are a reshape and a transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .fields import BINARY, FieldSpec

WORD = np.dtype("<u8")


@dataclass(frozen=True)
class BitMatrix:
    """An exact matrix expanded once to its GF(2) bit-matrix: for each output
    plane, the indices of the input planes whose XOR it is."""

    rows: list[list[int]]  # the field coefficients; bench/tracer.py counts them
    ncols: int
    selections: list[np.ndarray]


class BulkField:
    """Bit-sliced matrix application over one binary field."""

    def __init__(self, spec: FieldSpec):
        if spec.kind != BINARY:  # put's check: the store loads no other field
            raise UsageError("cluster storage requires a binary-extension field")
        self.spec = spec
        # coefficient -> its bit-matrix; this name and mul_table's are the
        # ones bench/tracer.py wraps to time block builds
        self._tables: dict[int, np.ndarray] = {}

    def mul_table(self, c: int) -> np.ndarray:
        """The m x m GF(2) matrix of multiplication by c.

        Column b holds the bits of c * z^b (bit i in row i), so that bit
        i of c*v is the XOR of bits b of v over the set entries of row i.
        Column b+1 is column b times z: a shift, reduced by one XOR of the
        reduction polynomial when it reaches z^m.
        """
        block = self._tables.get(c)
        if block is None:
            m, poly = self.spec.m, self.spec.reduction_poly
            column = [c]
            for _ in range(m - 1):
                x = column[-1] << 1
                column.append(x ^ poly if x >> m else x)
            columns = np.array(column, dtype=np.uint32)
            block = ((columns[None, :] >> np.arange(m, dtype=np.uint32)[:, None])
                     & 1).astype(np.uint8)
            self._tables[c] = block
        return block

    def _bit_matrix(self, rows: list[list[int]]) -> np.ndarray:
        """(r x c) field matrix -> (r*m x c*m) GF(2) matrix of m x m blocks."""
        m = self.spec.m
        coeffs = sorted({x for row in rows for x in row})
        position = {x: i for i, x in enumerate(coeffs)}
        blocks = np.stack([self.mul_table(x) for x in coeffs])
        index = np.array([[position[x] for x in row] for row in rows])
        r, c = index.shape
        return blocks[index].transpose(0, 2, 1, 3).reshape(r * m, c * m)

    def expand(self, rows: list[list[int]]) -> BitMatrix:
        """An (r x c) exact matrix, as int rows -> its BitMatrix, for
        applying it to many batches of planes."""
        m = self.spec.m
        ncols = len(rows[0]) if rows else 0
        if ncols == 0:
            return BitMatrix(rows, 0, [np.empty(0, dtype=np.intp)] * (len(rows) * m))
        return BitMatrix(rows, ncols,
                         [np.flatnonzero(row) for row in self._bit_matrix(rows)])

    def matmul(self, matrix, planes: np.ndarray) -> np.ndarray:
        """Apply an (r x c) exact matrix, or its BitMatrix, to (c*m, W)
        planes -> (r*m, W)."""
        if not isinstance(matrix, BitMatrix):
            matrix = self.expand(matrix)
        m = self.spec.m
        if planes.shape[0] != matrix.ncols * m:
            raise UsageError(f"bulk matmul expects {matrix.ncols * m} planes, "
                             f"got {planes.shape[0]}")
        out = np.zeros((len(matrix.selections), planes.shape[1]), dtype=WORD)
        if out.size == 0:
            return out
        planes = np.ascontiguousarray(planes)  # row gathers read whole planes
        for i, selected in enumerate(matrix.selections):
            if selected.size:
                np.bitwise_xor.reduce(planes[selected], axis=0, out=out[i])
        return out


def bytes_to_symbols(stream: bytes, rows: int) -> np.ndarray:
    """A byte stream -> its (rows, stripes) planes, zero-padded to whole
    stripes of rows words.  Returns a view of the padded stream."""
    stripes = -(-len(stream) // (rows * WORD.itemsize))
    padded = stream.ljust(stripes * rows * WORD.itemsize, b"\x00")
    return np.frombuffer(padded, dtype=WORD).reshape(stripes, rows).T


def symbols_to_bytes(planes: np.ndarray) -> bytes:
    """Inverse of bytes_to_symbols, padding included."""
    return planes.T.astype(WORD, copy=False).tobytes()
