"""Canonical monomial bases of symmetric and exterior powers, and the one
builder of the codes' tensor rows.

Degree-q symmetric monomials over an m-dimensional space are indexed by
non-decreasing q-tuples over range(m); wedge monomials by strictly
increasing q-tuples.  monomials(flavor, m, q) is the one cached tuple of
them, in lexicographic order, which fixes serialization and makes every
expansion deterministic; a monomial's index is its place in that tuple.

The symmetric product of coordinate vectors is computed as iterated
monomial multiplication: multiplying by a vector v sends a monomial to
the sum over i of v[i] times the monomial with i inserted in sorted
place.  That is exactly the sort-the-indices product map from the tensor
power, well defined in every characteristic (no division by
multiplicities).  The wedge product inserts with a parity sign and kills
repeats.  Where each insertion lands depends on the basis alone, so it
is tabled once per (flavor, dimension, degree), like the monomials: the
insertion map gives, for each monomial and coordinate i, the index of
the product with e_i and its sign, or that it is killed.

Every tensor a code evaluates the file at has one shape: a node's basis,
a help message's basis, the repair-span axiom's rows and the witness
rows are all x tensor (s . e_eta . targets) for the monomials eta of one
degree.  star_rows builds them all through one builder, in the x-major
product basis (one block of the inner power per coordinate of x).  With
no targets a row is a scatter of s through the insertion map, with no
multiply; each target adds one pass.  x is applied last, one
FieldSpec.scale_row of the packed inner rows per entry of x.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .errors import UsageError
from .fields import FieldSpec
from .linalg import Echelon

SYMMETRIC = "symmetric"
EXTERIOR = "exterior"


@lru_cache(maxsize=None)
def monomials(flavor: str, m: int, q: int) -> tuple:
    """The degree-q monomials over F^m in canonical order: non-decreasing
    (symmetric) or strictly increasing (exterior) q-tuples over range(m);
    none for a negative degree, whose power is the zero space."""
    if q < 0:
        return ()
    tuples = combinations_with_replacement if flavor == SYMMETRIC else combinations
    return tuple(tuples(range(m), q))


@lru_cache(maxsize=None)
def _insertions(flavor: str, m: int, q: int) -> tuple:
    """The insertion map of the degree-q monomials over F^m: for monomial
    j of the degree-q basis, the triples (i, position, odd) for each
    coordinate i that e_i times it does not kill, position being that
    product's index in the degree-(q+1) basis and odd its sign.  e_i . mono
    inserts i in sorted place; e_i ^ mono also, with the parity of the
    indices it moves past, and kills the wedge when i is already there."""
    position = {mono: j for j, mono in enumerate(monomials(flavor, m, q + 1))}
    table = []
    for mono in monomials(flavor, m, q):
        triples = []
        for i in range(m):
            if flavor == SYMMETRIC:
                p, odd = bisect_right(mono, i), False
            else:
                p = bisect_left(mono, i)
                if p < len(mono) and mono[p] == i:
                    continue
                odd = p % 2 == 1
            triples.append((i, position[mono[:p] + (i,) + mono[p:]], odd))
        table.append(tuple(triples))
    return tuple(table)


def tensor_with_x_ints(spec: FieldSpec, x_values: list[int],
                       inner_rows: list[list[int]]) -> list[list[int]]:
    """x tensor s for each inner row s, in the X-major product basis: the
    inner rows packed into one block, scaled once per entry of x by
    FieldSpec.scale_row, and each row's slices of the scaled blocks
    joined."""
    width = len(x_values) * len(inner_rows[0]) if inner_rows else 0
    if not width:
        return [[] for _ in inner_rows]
    packed = spec.row_bytes([v for row in inner_rows for v in row])
    scale, zero = spec.scale_row, bytes(len(packed))
    blocks = [packed if xc == 1 else scale(xc, packed) if xc else zero for xc in x_values]
    step = len(packed) // len(inner_rows)
    values = spec.row_values(b"".join([block[i:i + step] for i in range(0, len(packed), step)
                                       for block in blocks]))
    return [values[i:i + width] for i in range(0, len(values), width)]


def sym_tensor_rows(spec: FieldSpec, x, vectors: list, degree: int) -> list[list[int]]:
    """x tensor (v_1 . v_2 ... v_j . e_eta) for each degree-`degree`
    monomial eta, densified over X tensor the inner power."""
    return _tensor_rows(spec, SYMMETRIC, x, vectors, degree)


def ext_tensor_rows(spec: FieldSpec, x, vectors: list, degree: int) -> list[list[int]]:
    """x tensor (v_1 ^ v_2 ^ ... ^ v_j ^ e_eta) for each degree-`degree`
    wedge eta, densified over X tensor the inner power."""
    return _tensor_rows(spec, EXTERIOR, x, vectors, degree)


def _tensor_rows(spec, flavor, x, vectors, degree) -> list[list[int]]:
    """The one builder.  The product is taken from the right: e_eta first,
    then the last vector, which is a scatter of its entries (with signs)
    through the insertion map of eta's degree, then each earlier vector,
    one pass through the next map that multiplies it in by every nonzero
    entry so far."""
    m, neg = len(vectors[0]), spec.neg
    *earlier, last = vectors
    signed = (last, last if flavor == SYMMETRIC else [neg(v) for v in last])
    dim = len(monomials(flavor, m, degree + 1))
    rows = []
    for triples in _insertions(flavor, m, degree):
        row = [0] * dim
        for i, position, odd in triples:
            row[position] = signed[odd][i]
        rows.append(row)
    add, mul = spec.add, spec.mul
    for q, v in enumerate(reversed(earlier), degree + 1):
        table = _insertions(flavor, m, q)
        signed = (v, v if flavor == SYMMETRIC else [neg(a) for a in v])
        dim = len(monomials(flavor, m, q + 1))
        for r, row in enumerate(rows):
            out = [0] * dim
            for c, triples in zip(row, table):
                if c:
                    for i, position, odd in triples:
                        out[position] = add(out[position], mul(c, signed[odd][i]))
            rows[r] = out
    return tensor_with_x_ints(spec, x, rows)


def star_rows(spec: FieldSpec, flavor: str, x, s, degree: int,
              targets: tuple = ()) -> list[list[int]]:
    """x tensor (s . e_eta . targets) for every monomial eta of `degree`
    over the space of s, in canonical order of eta: symmetric products,
    or wedges in that order in the exterior flavor.

    Each product is taken from the right, starting at e_eta; in the
    exterior flavor that is s ^ targets ^ e_eta, which differs from
    s ^ e_eta ^ targets by the sign (-1)^(degree * len(targets)), carried
    on x.  A negative degree, or one past the space in the exterior
    flavor, has no monomials and gives no rows.
    """
    if any(len(v) != len(s) for v in targets):
        raise UsageError(f"expected target vectors of length {len(s)}")
    vectors = [s, *targets]
    if flavor == SYMMETRIC:
        return sym_tensor_rows(spec, x, vectors, degree)
    if degree * len(targets) % 2:
        x = [spec.neg(v) for v in x]
    return ext_tensor_rows(spec, x, vectors, degree)


def rank_filter(spec: FieldSpec, rows: list[list[int]], limit: int | None = None):
    """Greedy maximal independent sublist (first-come order).

    Returns (kept_rows, kept_positions); stops early once `limit` rows
    are kept.
    """
    echelon = Echelon(spec, len(rows[0]) if rows else 0)
    kept_rows = []
    kept_positions = []
    for pos, row in enumerate(rows):
        if not echelon.offer(row):
            continue
        kept_rows.append(row)
        kept_positions.append(pos)
        if limit is not None and len(kept_rows) == limit:
            break
    return kept_rows, kept_positions
