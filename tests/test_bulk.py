"""The bit-sliced bulk kernel and the byte stream <-> bit-plane layout,
checked against the scalar field arithmetic and a bit-by-bit reference
for every extension degree m = 1..16."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrahasis.bulk import BulkField, Planes, bytes_to_symbols, symbols_to_bytes
from atrahasis.fields import binary_field
from atrahasis.linalg import matvec
from conftest import pack_planes, read_stripes, unpack_planes

DEGREES = range(1, 17)


def scalar_matmul(spec, rows, data):
    """Reference: linalg.matvec on every column of per-row symbol lists."""
    n = len(data[0]) if data else 0
    cols = [matvec(spec, rows, [row[j] for row in data]) for j in range(n)]
    return [[col[i] for col in cols] for i in range(len(rows))]


def reference_stream(chunks: list[list[int]], m: int, batch: int) -> bytes:
    """Inverse of read_stripes, bit by bit (len(chunks) % 64 == 0)."""
    symbols = len(chunks[0]) if chunks else 0
    rows = symbols * m
    stripes = len(chunks) // 64
    out = bytearray(stripes * rows * 8)
    for c, chunk in enumerate(chunks):
        s, t = divmod(c, 64)
        s0 = s - s % batch
        width = min(batch, stripes - s0)
        for j, v in enumerate(chunk):
            for b in range(m):
                word = s0 * rows + (j * m + b) * width + (s - s0)
                out[8 * word + t // 8] |= ((v >> b) & 1) << (t % 8)
    return bytes(out)


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
    data = [[rng.randrange(spec.order) for _ in range(n)] for _ in range(4)]
    planes = pack_planes(data, m)
    got = bulk.matmul(rows, planes)
    assert bulk.matmul(bulk.expand(rows), planes) == got
    assert all(type(plane) is int for plane in got)
    assert got.shape == (3 * m, -(-n // 64))
    lanes = unpack_planes(got, m, 64 * got.shape[1])
    assert [row[:n] for row in lanes] == scalar_matmul(spec, rows, data)
    assert not any(v for row in lanes for v in row[n:])  # padding lanes stay 0


@pytest.mark.parametrize("m", [1, 4, 8, 9, 16])
def test_matmul_empty_shapes(m):
    bulk = BulkField(binary_field(m))
    empty = Planes([], 5)
    assert bulk.matmul([], empty).shape == (0, 5)
    zeros = bulk.matmul([[], []], empty)
    assert zeros.shape == (2 * m, 5) and zeros == [0] * (2 * m)
    assert bulk.matmul([[1, 1]], Planes([0] * (2 * m), 0)).shape == (m, 0)


@pytest.mark.parametrize("m", DEGREES)
def test_mul_table_is_multiplication_bit_matrix(m):
    spec = binary_field(m)
    bulk = BulkField(spec)

    def apply(block, v):
        # bit i of the product is the XOR of v's bits listed in row i
        return sum((sum((v >> b) & 1 for b in block[i]) & 1) << i for i in range(m))

    assert bulk.mul_table(0) == ((),) * m
    assert bulk.mul_table(1) == tuple((i,) for i in range(m))
    c = spec.order - 1
    block = bulk.mul_table(c)
    assert bulk._tables[c] is block
    for v in (1, spec.order // 2, spec.order - 1):
        assert apply(block, v) == spec.mul(c, v)
    if m > 8:  # no product tables: check random coefficients and symbols
        rng = random.Random(m)
        for c in rng.sample(range(2, spec.order - 1), 20):
            block = bulk.mul_table(c)
            for v in rng.sample(range(spec.order), 20):
                assert apply(block, v) == spec.mul(c, v), (c, v)


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
    gen = random.Random(seed)
    data = [[gen.randrange(spec.order) for _ in range(n)] for _ in range(c)]
    got = BulkField(spec).matmul(rows, pack_planes(data, m))
    assert unpack_planes(got, m, n) == scalar_matmul(spec, rows, data)


@pytest.mark.parametrize("m", DEGREES)
def test_packing_matches_reference(m):
    rng = random.Random(m)
    for symbols, size in ((1, 0), (1, 8), (3, 37), (5, 3 * 5 * m * 8 + 1)):
        stream = bytes(rng.randrange(256) for _ in range(size))
        planes = bytes_to_symbols(stream, symbols * m)
        stripes = -(-size // (symbols * m * 8))
        assert planes.shape == (symbols * m, stripes)
        # one call packs one batch, however many stripes it holds
        want = read_stripes(stream, symbols, m, batch=max(stripes, 1))
        got = unpack_planes(planes, m, 64 * stripes)
        assert [list(chunk) for chunk in zip(*got)] == want
        back = symbols_to_bytes(planes)
        assert back == reference_stream(want, m, batch=max(stripes, 1))
        assert back == stream.ljust(len(back), b"\x00")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(1, 4), st.binary(max_size=300))
def test_packing_random(m, symbols, stream):
    planes = bytes_to_symbols(stream, symbols * m)
    chunks = [list(chunk) for chunk in zip(*unpack_planes(planes, m, 64 * planes.stripes))]
    assert chunks == read_stripes(stream, symbols, m, batch=max(planes.stripes, 1))
    back = symbols_to_bytes(planes)
    assert len(back) % (symbols * m * 8) == 0
    assert back == stream.ljust(len(back), b"\x00")
