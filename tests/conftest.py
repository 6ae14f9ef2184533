import os
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from atrahasis.bulk import Planes
from atrahasis.code import SYMMETRIC, NodeContent
from atrahasis.errors import UsageError
from atrahasis.fields import binary_field, prime_field
from atrahasis.fixtures import atrahasis_956
from atrahasis.linalg import matvec
from atrahasis.tensors import monomials
from atrahasis.transforms import (SUBSPACE, ShortenedCode, central_repair_program,
                                  subspace_bandwidth)


def pytest_configure(config):
    # pytest finds the package through its pythonpath setting; the commands
    # the tests start (`python -m atrahasis`, the RSS probes) need PYTHONPATH
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def gf16():
    return binary_field(4)


@pytest.fixture(scope="session")
def gf127():
    return prime_field(127)


@pytest.fixture(scope="session")
def fixture_family():
    return atrahasis_956()


@pytest.fixture()
def rng():
    return random.Random(0xA7A)


def random_values(rng, spec, count):
    return [rng.randrange(spec.order) for _ in range(count)]


def _check_length(m, v):
    if len(v) != m:
        raise UsageError(f"expected vector of length {m}, got {len(v)}")


def sym_product_ints(spec, m, vectors, monomial=()):
    """Reference symmetric product: sparse coordinates of
    (v_1 . v_2 ... v_q) . e_monomial in S^(q+|monomial|)F^m, as
    {sorted index tuple: coefficient}, by iterated monomial
    multiplication with a re-sort per term."""
    add, mul = spec.add, spec.mul
    acc = {tuple(sorted(monomial)): 1}
    for v in vectors:
        _check_length(m, v)
        nxt = {}
        for mono, c in acc.items():
            for i, vi in enumerate(v):
                if not vi:
                    continue
                p = bisect_right(mono, i)
                key = mono[:p] + (i,) + mono[p:]
                coeff = mul(c, vi)
                prev = nxt.get(key)
                nxt[key] = coeff if prev is None else add(prev, coeff)
        acc = {k: v for k, v in nxt.items() if v}
    return acc


def ext_product_ints(spec, k, vectors, monomial=()):
    """Reference wedge product: sparse coordinates of
    (v_1 ^ v_2 ^ ... ^ v_q) ^ e_monomial, as {strictly increasing tuple:
    coefficient}.  Each vector is wedged on from the left of the
    accumulated product, with the parity sign of moving its index into
    sorted position."""
    add, mul, neg = spec.add, spec.mul, spec.neg
    start = tuple(monomial)
    if len(set(start)) != len(start):
        return {}
    swaps = sum(1 for i in range(len(start)) for j in range(i + 1, len(start))
                if start[i] > start[j])
    acc = {tuple(sorted(start)): neg(1) if swaps % 2 else 1}
    for v in reversed(vectors):
        _check_length(k, v)
        nxt = {}
        for mono, c in acc.items():
            for i, vi in enumerate(v):
                if not vi:
                    continue
                p = bisect_left(mono, i)
                if p < len(mono) and mono[p] == i:
                    continue
                key = mono[:p] + (i,) + mono[p:]
                coeff = mul(c, vi)
                if p % 2 == 1:
                    coeff = neg(coeff)
                prev = nxt.get(key)
                nxt[key] = coeff if prev is None else add(prev, coeff)
        acc = {key: v for key, v in nxt.items() if v}
    return acc


def oracle_star_rows(spec, flavor, x, s, degree, targets=()):
    """tensors.star_rows from the dict products: each monomial's product
    densified over the inner basis, then tensored with x entry by entry."""
    product = sym_product_ints if flavor == SYMMETRIC else ext_product_ints
    inner = monomials(flavor, len(s), 1 + degree + len(targets))
    position = {mono: j for j, mono in enumerate(inner)}
    if flavor != SYMMETRIC and degree * len(targets) % 2:
        x = [spec.neg(v) for v in x]
    rows = []
    for mono in monomials(flavor, len(s), degree):
        dense = [0] * len(inner)
        for key, c in product(spec, len(s), [s, *targets], mono).items():
            dense[position[key]] = c
        rows.append([spec.mul(xc, v) for xc in x for v in dense])
    return rows


def central_repair_two(file, stars, f, g, helpers, strategy=SUBSPACE):
    """Repair nodes f and g of a plain family at once through a central
    agent, with the matrices the store applies, each helper reading only
    its own values.  Returns (content_f, content_g, plan);
    plan.total_bandwidth counts the symbols sent to the agent."""
    program = central_repair_program(stars, f, g, helpers, strategy)
    code, received = ShortenedCode(stars, 0), []
    for h, S in zip(helpers, program.send_matrices):
        received.extend(matvec(stars.spec, S, code.node_content(file, h).values))
    return (NodeContent(f, matvec(stars.spec, program.recover_first, received)),
            NodeContent(g, matvec(stars.spec, program.recover_second, received)),
            program.plan)


def reference_matmul(spec, left, right):
    """The product of two matrices given by their rows, entry by entry."""
    mul, add = spec.mul, spec.add
    out = []
    for row in left:
        acc = [0] * (len(right[0]) if right else 0)
        for a, other in zip(row, right):
            if a:
                acc = [add(x, mul(a, y)) for x, y in zip(acc, other)]
        out.append(acc)
    return out


def gauss_jordan(spec, rows, width):
    """(pivot columns, reduced rows, determinant factor) by textbook
    Gauss-Jordan over the first `width` columns, one entry at a time with
    spec.mul, spec.sub and spec.inv only.  The factor is the product of
    the pivots with the sign of the row swaps; it is the determinant of
    a square matrix of full rank."""
    rows = [list(row) for row in rows]
    pivots, factor = [], 1
    for c in range(width):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pick is None:
            continue
        if pick != r:
            rows[r], rows[pick] = rows[pick], rows[r]
            factor = spec.sub(0, factor)
        lead = rows[r][c]
        factor = spec.mul(factor, lead)
        rows[r] = [spec.mul(spec.inv(lead), v) for v in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [spec.sub(a, spec.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots, rows[:len(pivots)], factor


def put_rows(code, nodes):
    """The user symbols -> the values of the given live nodes in the plain
    basis: the nodes' tensor rows times the code's encoder."""
    rows = [list(row) for h in nodes for row in code.base.node_tensor_rows(h)]
    return rows if code.encoder is None else reference_matmul(code.spec, rows, code.encoder)


def transfer_oracle(code, sources, targets):
    """transfer_matrix as the product it replaced: the targets' put rows
    times the decode matrix of the sources, the inverse of the sources'
    and pinned nodes' tensor rows at the free coordinates."""
    return reference_matmul(code.spec, put_rows(code, targets), code.decode_matrix(list(sources)))


def naive_bandwidth(k: int, d: int) -> int:
    return d * (2 * k - 5)


def cascade_bandwidth(k: int, d: int) -> int:
    return (d - 1) * (2 * k - 5) + (k - 2)


def cutset_two_failure_bandwidth(k: int) -> Fraction:
    """The information-flow floor 2*d*alpha/(d+2-k) at d = 3(k-1)/2."""
    d = Fraction(3 * (k - 1), 2)
    alpha = Fraction((k - 1) * (k - 2), 2)
    return 2 * d * alpha / (d + 2 - k)


def subspace_optimality_gap(k: int) -> Fraction:
    """Exact distance of the subspace strategy from the cut-set floor."""
    return subspace_bandwidth(k) - cutset_two_failure_bandwidth(k)


def pack_planes(rows, m):
    """Test-side reference packing: per-row symbol lists -> len(rows)*m int
    planes, W = ceil(N/64) words wide; bit t of plane j*m + b is bit b of
    rows[j][t], and the padding lanes are 0."""
    n = len(rows[0]) if rows else 0
    return Planes([sum(((v >> b) & 1) << t for t, v in enumerate(row))
                   for row in rows for b in range(m)], -(-n // 64))


def multiplication_rows(spec, c):
    """The bit-matrix of multiplication by c from the definition: row b
    has bit e set when bit b of c * z^e is."""
    products = [spec.mul(c, 1 << e) for e in range(spec.m)]
    return tuple(sum(((p >> b) & 1) << e for e, p in enumerate(products))
                 for b in range(spec.m))


def bit_matrix_rows(spec, rows):
    """An exact matrix's GF(2) bit-matrix from the definition, one mask of
    input planes per output plane: plane i*m + b selects plane j*m + e
    when bit b of rows[i][j] * z^e is set."""
    m, blocks = spec.m, {}
    out = []
    for row in rows:
        for b in range(m):
            mask = 0
            for j, c in enumerate(row):
                if c not in blocks:
                    blocks[c] = multiplication_rows(spec, c)
                mask |= blocks[c][b] << (j * m)
            out.append(mask)
    return out


def replay(bulk, matrix):
    """Run a BitMatrix on identity planes, input plane e being 1 << e, so
    that each output plane is the mask of the input planes it XORs."""
    return list(bulk.matmul(matrix, Planes([1 << e for e in range(matrix.ncols * bulk.spec.m)],
                                           1)))


def program_xors(matrix):
    """The XORs one batch costs under a BitMatrix: a plain selection of n
    planes takes n - 1, a chain one, and a table term one, except the
    first into an output plane with an empty selection, which is a copy."""
    selections, steps = matrix.program
    xors, fed = sum(max(len(s) - 1, 0) for s in selections), set()
    for _, chains, coefficients in steps:
        xors += len(chains)
        for o, terms in coefficients:
            xors += len(terms)
            fed.update(o + b for b, _ in terms)
    return xors - sum(1 for k in fed if not selections[k])


def unpack_planes(planes, m, n):
    """Inverse of pack_planes for the first n chunks."""
    return [[sum(((planes[j * m + b] >> t) & 1) << b for b in range(m))
             for t in range(n)]
            for j in range(len(planes) // m)]


def read_stripes(data: bytes, symbols: int, m: int, batch: int) -> list[list[int]]:
    """The documented plane-major batch layout, read bit by bit from a user
    stream or a blob body (zero-extended to whole stripes).  The stripes
    are cut into batches of `batch` (the last may be shorter); a batch of
    W stripes starting at stripe s0 stores plane j*m + b as W consecutive
    little-endian uint64 words, and bit t of its word w is bit b of symbol
    j of chunk 64*(s0 + w) + t, each chunk holding `symbols` symbols."""
    def bit(word, t):
        i = 8 * word + t // 8
        return (data[i] >> (t % 8)) & 1 if i < len(data) else 0

    rows = symbols * m
    stripes = -(-len(data) // (8 * rows))
    chunks = []
    for s0 in range(0, stripes, batch):
        width = min(batch, stripes - s0)
        for w in range(width):
            for t in range(64):
                chunks.append([sum(bit(s0 * rows + (j * m + b) * width + w, t) << b
                                   for b in range(m))
                               for j in range(symbols)])
    return chunks
