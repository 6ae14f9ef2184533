"""The bit-sliced bulk kernel and the byte <-> symbol packing, checked
against the scalar field arithmetic and a bit-by-bit reference for every
extension degree m = 1..16."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrahasis.bulk import BulkField, bytes_to_symbols, symbols_to_bytes
from atrahasis.fields import binary_field
from atrahasis.linalg import Matrix, Vector

DEGREES = range(1, 17)


def scalar_matmul(spec, rows, data):
    """Reference: Matrix.matvec on every column."""
    A = Matrix(spec, rows)
    cols = [A.matvec(Vector(spec, [int(v) for v in data[:, j]])).values
            for j in range(data.shape[1])]
    return [[col[i] for col in cols] for i in range(len(rows))]


def reference_symbols(data: bytes, m: int, total: int) -> list[int]:
    bits = [(byte >> (7 - i)) & 1 for byte in data for i in range(8)]
    bits = (bits + [0] * (total * m))[:total * m]
    out = []
    for s in range(total):
        value = 0
        for bit in bits[s * m:(s + 1) * m]:
            value = (value << 1) | bit
        out.append(value)
    return out


def reference_bytes(symbols: list[int], m: int) -> bytes:
    bits = [(v >> (m - 1 - i)) & 1 for v in symbols for i in range(m)]
    bits += [0] * (-len(bits) % 8)
    return bytes(sum(bit << (7 - i) for i, bit in enumerate(bits[j:j + 8]))
                 for j in range(0, len(bits), 8))


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65])
@pytest.mark.parametrize("m", DEGREES)
def test_matmul_matches_scalar(m, n):
    # n = 63, 64, 65 straddle the padding lanes of the last uint64 word
    spec = binary_field(m)
    rng = random.Random(m * 100 + n)
    bulk = BulkField(spec)
    rows = [[rng.randrange(spec.order) for _ in range(4)] for _ in range(3)]
    rows[0][1] = 0
    rows[1][2] = 1
    rows[2] = [0, 0, 0, 0]
    data = np.array([[rng.randrange(spec.order) for _ in range(n)]
                     for _ in range(4)], dtype=bulk.dtype).reshape(4, n)
    got = bulk.matmul(rows, data)
    assert got.dtype == bulk.dtype
    assert got.shape == (3, n)
    assert got.tolist() == scalar_matmul(spec, rows, data)


@pytest.mark.parametrize("m", [1, 4, 8, 9, 16])
def test_matmul_empty_shapes(m):
    bulk = BulkField(binary_field(m))
    empty = np.zeros((0, 5), dtype=bulk.dtype)
    assert bulk.matmul([], empty).shape == (0, 5)
    assert bulk.matmul([[], []], empty).tolist() == [[0] * 5, [0] * 5]
    assert bulk.matmul([[1, 1]], np.zeros((2, 0), dtype=bulk.dtype)).shape == (1, 0)


@pytest.mark.parametrize("m", DEGREES)
def test_mul_table_is_multiplication_bit_matrix(m):
    spec = binary_field(m)
    bulk = BulkField(spec)
    assert not bulk.mul_table(0).any()
    assert (bulk.mul_table(1) == np.eye(m, dtype=np.uint8)).all()
    c = spec.order - 1
    block = bulk.mul_table(c)
    assert bulk._tables[c] is block
    for v in (1, spec.order // 2, spec.order - 1):
        bits = [(v >> b) & 1 for b in range(m)]
        product = sum(((int(block[i] @ bits)) & 1) << i for i in range(m))
        assert product == spec.mul(c, v)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matmul_random(draw):
    m = draw.draw(st.integers(1, 16), label="m")
    spec = binary_field(m)
    r = draw.draw(st.integers(1, 5), label="r")
    c = draw.draw(st.integers(1, 5), label="c")
    n = draw.draw(st.integers(0, 130), label="n")
    symbol = st.integers(0, spec.order - 1)
    rows = draw.draw(st.lists(st.lists(symbol, min_size=c, max_size=c),
                              min_size=r, max_size=r), label="rows")
    seed = draw.draw(st.integers(0, 2**32 - 1), label="seed")
    bulk = BulkField(spec)
    data = np.random.default_rng(seed).integers(
        0, spec.order, size=(c, n)).astype(bulk.dtype)
    assert bulk.matmul(rows, data).tolist() == scalar_matmul(spec, rows, data)


@pytest.mark.parametrize("m", DEGREES)
def test_packing_matches_reference(m):
    rng = random.Random(m)
    data = bytes(rng.randrange(256) for _ in range(37))
    for total in (0, 1, (len(data) * 8) // m, (len(data) * 8 + m - 1) // m + 3):
        want = reference_symbols(data, m, total)
        got = bytes_to_symbols(data, m, total)
        assert got.dtype == (np.uint8 if m <= 8 else np.uint16)
        assert got.tolist() == want
        assert symbols_to_bytes(got, m) == reference_bytes(want, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.binary(max_size=80))
def test_packing_random(m, data):
    total = (len(data) * 8 + m - 1) // m
    symbols = bytes_to_symbols(data, m, total)
    assert symbols.tolist() == reference_symbols(data, m, total)
    back = symbols_to_bytes(symbols, m)
    assert back == reference_bytes(symbols.tolist(), m)
    assert back[:len(data)] == data
