"""Vectorized kernels for applying small exact matrices across many
chunks at once.

The storage layer works on thousands of M-symbol chunks; every per-chunk
operation (encode, node extraction, help, repair, decode) is one fixed
matrix over GF(2^m) applied to a symbol column per chunk.  Here those
matrix applications are bit-sliced: multiplication by a constant c is
GF(2)-linear on the m bits of a symbol, so each coefficient becomes its
m x m bit-matrix and the whole matrix an (r*m x c*m) GF(2) matrix.  The
data is split into m bit-planes per symbol row, packed 64 chunks to a
uint64 word, and each output bit-plane is the XOR of the input planes
its bit-matrix row selects (Blomer et al., "An XOR-based
erasure-resilient coding scheme", ICSI TR-95-048, 1995).  One code path
serves every m = 1..16.  Results are bit-identical to the scalar path in
linalg, which the tests cross-check.

Binary fields only: the byte <-> symbol packing slices the bit stream m
bits per symbol.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .fields import BINARY, FieldSpec
from .linalg import Matrix


def _dtype(m: int):
    return np.uint8 if m <= 8 else np.uint16


class BulkField:
    """Bit-sliced matrix application over one binary field."""

    def __init__(self, spec: FieldSpec):
        if spec.kind != BINARY:
            raise UsageError("bulk kernels support binary fields only")
        self.spec = spec
        self.dtype = _dtype(spec.m)
        # coefficient -> its bit-matrix; this name and mul_table's are the
        # ones bench/tracer.py wraps to time block builds
        self._tables: dict[int, np.ndarray] = {}

    def mul_table(self, c: int) -> np.ndarray:
        """The m x m GF(2) matrix of multiplication by c.

        Column b holds the bits of c * z^b (bit i in row i), so that bit
        i of c*v is the XOR of bits b of v over the set entries of row i.
        """
        block = self._tables.get(c)
        if block is None:
            m = self.spec.m
            columns = np.array([self.spec.mul(c, 1 << b) for b in range(m)],
                               dtype=np.uint32)
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

    def _bit_planes(self, data: np.ndarray) -> np.ndarray:
        """(c, N) symbols -> (c*m, ceil(N/64)) uint64 planes.

        Plane j*m + b holds bit b of row j, chunk t at bit t of the row's
        little-endian bit stream; the padding lanes of the last word are 0.
        """
        m = self.spec.m
        data = np.ascontiguousarray(data)  # packbits is ~20x slower across strides
        c, n = data.shape
        words = -(-n // 64)
        planes = np.zeros((c, m, words * 8), dtype=np.uint8)
        for b in range(m):
            packed = np.packbits(data & (1 << b), axis=1, bitorder="little")
            planes[:, b, :packed.shape[1]] = packed
        return planes.view(np.uint64).reshape(c * m, words)

    def matmul(self, matrix, data: np.ndarray) -> np.ndarray:
        """Apply an (r x c) exact matrix to (c, N) symbol columns."""
        rows = matrix.rows if isinstance(matrix, Matrix) else matrix
        ncols = len(rows[0]) if rows else 0
        if data.shape[0] != ncols:
            raise UsageError(f"bulk matmul expects {ncols} rows, got {data.shape[0]}")
        n = data.shape[1]
        out = np.zeros((len(rows), n), dtype=self.dtype)
        if out.size == 0 or ncols == 0:
            return out
        m = self.spec.m
        bits = self._bit_matrix(rows)
        planes = self._bit_planes(data)
        # one output row at a time, so only its m planes are ever unpacked
        for i in range(len(rows)):
            acc = out[i]
            for b in range(m):
                selected = np.flatnonzero(bits[i * m + b])
                if selected.size == 0:
                    continue
                plane = np.bitwise_xor.reduce(planes[selected], axis=0)
                lane = np.unpackbits(plane.view(np.uint8), count=n,
                                     bitorder="little").astype(self.dtype, copy=False)
                lane <<= b
                acc |= lane
        return out


def bytes_to_symbols(data: bytes, m: int, total_symbols: int) -> np.ndarray:
    """Slice a byte stream into m-bit symbols (big-endian bit order).

    The stream is zero-extended to cover total_symbols * m bits.
    """
    need_bits = total_symbols * m
    need_bytes = (need_bits + 7) // 8
    buf = np.frombuffer(data.ljust(need_bytes, b"\x00"), dtype=np.uint8)
    bits = np.unpackbits(buf, count=need_bits, bitorder="big")
    bits = bits.reshape(total_symbols, m)
    symbols = np.zeros(total_symbols, dtype=_dtype(m))
    for t in range(m):
        symbols <<= 1
        symbols |= bits[:, t]
    return symbols


def symbols_to_bytes(symbols: np.ndarray, m: int) -> bytes:
    """Inverse of bytes_to_symbols; trailing pad bits come back as zeros."""
    bits = np.empty((symbols.shape[0], m), dtype=np.uint8)
    for t in range(m):
        bits[:, t] = (symbols >> (m - 1 - t)) & 1
    return np.packbits(bits.reshape(-1), bitorder="big").tobytes()
