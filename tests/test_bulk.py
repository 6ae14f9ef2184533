"""The bit-sliced bulk kernel and the byte stream <-> bit-plane layout,
checked against the scalar field arithmetic and a bit-by-bit reference
for every extension degree m = 1..16."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrahasis.bulk import BulkField, Planes, bytes_to_symbols, symbols_to_bytes
from atrahasis.fields import binary_field
from atrahasis.fixtures import atrahasis_956
from atrahasis.linalg import matvec
from atrahasis.specfile import family_document, parse_document
from atrahasis.transforms import STRATEGIES, SUBSPACE
from conftest import (bit_matrix_rows, multiplication_rows, pack_planes, program_xors,
                      read_stripes, replay, unpack_planes)

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
        # bit i of the product is the parity of v's bits selected by row i
        return sum(((v & block[i]).bit_count() & 1) << i for i in range(m))

    assert bulk.mul_table(0) == (0,) * m
    assert bulk.mul_table(1) == tuple(1 << i for i in range(m))
    c = spec.order - 1
    block = bulk.mul_table(c)
    assert bulk._tables[c] is block
    for v in (1, spec.order // 2, spec.order - 1):
        assert apply(block, v) == spec.mul(c, v)
    # the linear build against the definition, row b of column e being bit
    # b of c * z^e: every coefficient up to m = 8, a sample above
    rng = random.Random(m)
    coefficients = (range(spec.order) if m <= 8
                    else rng.sample(range(2, spec.order - 1), 60) + [spec.order - 1])
    for c in coefficients:
        assert bulk.mul_table(c) == multiplication_rows(spec, c), c
    if m > 8:  # no product tables: check random coefficients and symbols
        for c in rng.sample(range(2, spec.order - 1), 20):
            block = bulk.mul_table(c)
            for v in rng.sample(range(spec.order), 20):
                assert apply(block, v) == spec.mul(c, v), (c, v)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_program_replays_to_the_bit_matrix(draw):
    # replay on identity planes: input plane e is 1 << e, so each output
    # plane comes out as the mask of the input planes it XORs; it must be
    # the bit-matrix row straight from the field multiplication.  The
    # coefficients come from a small pool, so columns repeat them (and
    # their row masks), and zero rows and columns are spliced in
    m = draw.draw(st.integers(1, 16), label="m")
    spec = binary_field(m)
    r = draw.draw(st.integers(1, 6), label="r")
    c = draw.draw(st.integers(1, 6), label="c")
    pool = draw.draw(st.lists(st.integers(0, spec.order - 1), min_size=1, max_size=4),
                     label="pool")
    rows = draw.draw(st.lists(st.lists(st.sampled_from(pool), min_size=c, max_size=c),
                              min_size=r, max_size=r), label="rows")
    if draw.draw(st.booleans(), label="zero row"):
        rows[draw.draw(st.integers(0, r - 1), label="which row")] = [0] * c
    if draw.draw(st.booleans(), label="zero column"):
        j = draw.draw(st.integers(0, c - 1), label="which column")
        for row in rows:
            row[j] = 0
    bulk = BulkField(spec)
    matrix, masks = bulk.expand(rows), bit_matrix_rows(spec, rows)
    assert replay(bulk, matrix) == masks
    # expand's guarantee: tables never cost more XORs than they save, so
    # the program spends at most the plain n - 1 XORs per output plane
    assert program_xors(matrix) <= sum(max(mask.bit_count() - 1, 0) for mask in masks)


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


def fixture_matrices():
    """Every matrix the store applies on the (9,5,6,6) GF(16) fixture: the
    parity matrix, the systematic decode of every 5 nodes, and the send
    and recovery matrices of every one-failure repair and of every
    two-failure repair under each strategy, the first d live nodes
    helping."""
    code, _ = parse_document(family_document(atrahasis_956()))
    yield "parity", code.transfer_matrix(range(code.k), range(code.k, code.n))
    for nodes in combinations(range(code.n), code.k):
        yield f"decode {nodes}", code.transfer_matrix(nodes, range(code.k))
    repairs = [([f], SUBSPACE) for f in range(code.n)]
    repairs += [(list(pair), strategy) for pair in combinations(range(code.n), 2)
                for strategy in STRATEGIES]
    for failed, strategy in repairs:
        helpers = [h for h in range(code.n) if h not in failed][:code.d]
        sends, recover = code.repair_program(failed, helpers, strategy)
        for h, rows in sends:
            yield f"{strategy} {failed} send {h}", rows
        for f, rows in zip(failed, recover):
            yield f"{strategy} {failed} recover {f}", rows


def test_fixture_programs_replay_to_their_bit_matrices():
    spec = binary_field(4)
    bulk = BulkField(spec)
    for name, rows in fixture_matrices():
        assert replay(bulk, bulk.expand(rows)) == bit_matrix_rows(spec, rows), name


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
