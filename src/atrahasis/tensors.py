"""Canonical monomial bases and coordinate expansion for symmetric and
exterior powers.

Degree-q symmetric monomials over an m-dimensional space are indexed by
non-decreasing q-tuples over range(m); wedge monomials by strictly
increasing q-tuples.  Both index lists are in lexicographic order, which
fixes serialization and makes every expansion deterministic.

The symmetric product of coordinate vectors is computed as iterated
monomial multiplication: multiplying by a vector v sends a monomial to
the sum over i of v[i] times the re-sorted monomial with i inserted.
That is exactly the sort-the-indices product map from the tensor power,
well defined in every characteristic (no division by multiplicities).
The wedge product inserts with a parity sign and kills repeats.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from math import comb

from .errors import UsageError
from .fields import FieldElement, FieldSpec
from .linalg import Echelon, Vector


class SymBasis:
    """Monomial basis of the degree-q symmetric power of F^m."""

    __slots__ = ("dim_space", "degree", "index", "position")

    def __init__(self, m: int, q: int):
        self.dim_space = m
        self.degree = q
        self.index = list(_nondecreasing_tuples(m, q))
        self.position = {t: i for i, t in enumerate(self.index)}

    @property
    def dim(self) -> int:
        return len(self.index)

    def __repr__(self):
        return f"SymBasis(m={self.dim_space}, q={self.degree}, dim={self.dim})"


class ExtBasis:
    """Wedge basis of the degree-q exterior power of F^k."""

    __slots__ = ("dim_space", "degree", "index", "position")

    def __init__(self, k: int, q: int):
        self.dim_space = k
        self.degree = q
        self.index = list(_increasing_tuples(k, q))
        self.position = {t: i for i, t in enumerate(self.index)}

    @property
    def dim(self) -> int:
        return len(self.index)

    def __repr__(self):
        return f"ExtBasis(k={self.dim_space}, q={self.degree}, dim={self.dim})"


class ProductBasis:
    """Basis of F^t tensor an inner power space, ordered block-per-x-vector."""

    __slots__ = ("x_dim", "inner")

    def __init__(self, x_dim: int, inner):
        self.x_dim = x_dim
        self.inner = inner

    @property
    def dim(self) -> int:
        return self.x_dim * self.inner.dim

    def __repr__(self):
        return f"ProductBasis(x_dim={self.x_dim}, inner={self.inner!r})"


@dataclass(frozen=True)
class TensorCoords:
    """Coordinates of a tensor against one of the canonical bases."""

    basis: object
    vector: Vector

    def __post_init__(self):
        if len(self.vector) != self.basis.dim:
            raise UsageError(
                f"coordinate length {len(self.vector)} != basis dimension {self.basis.dim}")


def _nondecreasing_tuples(m: int, q: int):
    if q < 0 or (m <= 0 and q > 0):
        return
    if q == 0:
        yield ()
        return
    def rec(start, remaining):
        if remaining == 0:
            yield ()
            return
        for i in range(start, m):
            for rest in rec(i, remaining - 1):
                yield (i,) + rest
    yield from rec(0, q)


def _increasing_tuples(k: int, q: int):
    if q < 0 or q > k:
        return
    if q == 0:
        yield ()
        return
    def rec(start, remaining):
        if remaining == 0:
            yield ()
            return
        for i in range(start, k - remaining + 1):
            for rest in rec(i + 1, remaining - 1):
                yield (i,) + rest
    yield from rec(0, q)


def sym_dim(m: int, q: int) -> int:
    if q < 0 or (m <= 0 and q > 0):
        return 0
    return comb(m + q - 1, q)


def ext_dim(k: int, q: int) -> int:
    if q < 0 or q > k:
        return 0
    return comb(k, q)


def _vector_values(spec: FieldSpec, m: int, v) -> list[int]:
    if isinstance(v, Vector):
        if v.spec != spec:
            raise UsageError("vector field mismatch")
        values = v.values
    else:
        values = [x.value if isinstance(x, FieldElement) else spec.check_value(x)
                  for x in v]
    if len(values) != m:
        raise UsageError(f"expected vector of length {m}, got {len(values)}")
    return values


def sym_product_ints(spec: FieldSpec, m: int, vectors, monomial: tuple = ()) -> dict:
    """Sparse coordinates of (v_1 . v_2 ... v_q) . e_monomial in S^(q+|monomial|)F^m.

    Returns {sorted index tuple: coefficient}.
    """
    add, mul = spec.add, spec.mul
    acc = {tuple(sorted(monomial)): 1}
    for v in vectors:
        values = _vector_values(spec, m, v)
        nxt: dict = {}
        for mono, c in acc.items():
            for i, vi in enumerate(values):
                if not vi:
                    continue
                key = tuple(insort_tuple(mono, i))
                coeff = mul(c, vi)
                prev = nxt.get(key)
                nxt[key] = coeff if prev is None else add(prev, coeff)
        acc = {k: v for k, v in nxt.items() if v}
    return acc


def insort_tuple(t: tuple, i: int) -> list:
    out = list(t)
    insort(out, i)
    return out


def ext_product_ints(spec: FieldSpec, k: int, vectors, monomial: tuple = ()) -> dict:
    """Sparse coordinates of (v_1 ^ v_2 ^ ... ^ v_q) ^ e_monomial in the
    exterior power, as {strictly increasing tuple: coefficient}.

    Each vector is wedged on from the right of the accumulated product,
    with the parity sign of moving the new index into sorted position.
    """
    add, mul, neg = spec.add, spec.mul, spec.neg
    start = tuple(monomial)
    if len(set(start)) != len(start):
        return {}
    acc = {tuple(sorted(start)): _sort_sign(spec, start)}
    for pos in range(len(vectors) - 1, -1, -1):
        values = _vector_values(spec, k, vectors[pos])
        nxt: dict = {}
        for mono, c in acc.items():
            for i, vi in enumerate(values):
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


def _sort_sign(spec: FieldSpec, t: tuple) -> int:
    swaps = sum(1 for i in range(len(t)) for j in range(i + 1, len(t)) if t[i] > t[j])
    return spec.neg(1) if swaps % 2 else 1


def tensor_with_x_ints(spec: FieldSpec, x_values: list[int], inner_dense: list[int]) -> list[int]:
    """Coordinates of x tensor s in the X-major product basis."""
    mul = spec.mul
    out = []
    for xc in x_values:
        if xc == 0:
            out.extend([0] * len(inner_dense))
        elif xc == 1:
            out.extend(inner_dense)
        else:
            out.extend([mul(xc, v) for v in inner_dense])
    return out


def sym_tensor_rows(spec: FieldSpec, x, vectors_by_row: list[list], inner_basis: SymBasis) -> list[list[int]]:
    """Rows x tensor (product of each vector list), densified over X tensor inner."""
    x_values = _vector_values(spec, len(x), x)
    rows = []
    for vectors in vectors_by_row:
        sparse = sym_product_ints(spec, inner_basis.dim_space, vectors)
        dense = [0] * inner_basis.dim
        for mono, c in sparse.items():
            dense[inner_basis.position[mono]] = c
        rows.append(tensor_with_x_ints(spec, x_values, dense))
    return rows


def ext_tensor_rows(spec: FieldSpec, x, vectors_by_row: list[list], inner_basis: ExtBasis) -> list[list[int]]:
    x_values = _vector_values(spec, len(x), x)
    rows = []
    for vectors in vectors_by_row:
        sparse = ext_product_ints(spec, inner_basis.dim_space, vectors)
        dense = [0] * inner_basis.dim
        for mono, c in sparse.items():
            dense[inner_basis.position[mono]] = c
        rows.append(tensor_with_x_ints(spec, x_values, dense))
    return rows


def unit_vectors(spec: FieldSpec, m: int, mono: tuple) -> list[list[int]]:
    out = []
    for i in mono:
        v = [0] * m
        v[i] = 1
        out.append(v)
    return out


def expand_node_basis_sym(spec: FieldSpec, x, y, sub: SymBasis) -> list[TensorCoords]:
    """Full-space coordinates of x tensor (y . eta) for each monomial eta of sub.

    sub indexes the degree-(t-1) symmetric power; the result lives in
    F^t tensor S^t, block per X basis vector.
    """
    t = len(x)
    m = sub.dim_space
    ambient_inner = SymBasis(m, sub.degree + 1)
    ambient = ProductBasis(t, ambient_inner)
    rows = sym_tensor_rows(
        spec, x,
        [[y] + unit_vectors(spec, m, mono) for mono in sub.index],
        ambient_inner)
    return [TensorCoords(ambient, Vector(spec, r)) for r in rows]


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


def expand_node_basis_ext(spec: FieldSpec, x, w, sub: ExtBasis) -> list[TensorCoords]:
    """Independent expansions of x tensor (w ^ omega) over the wedges of sub.

    Expanding every basis (t-1)-wedge omega gives a redundant generating
    set (w ^ omega vanishes whenever omega already involves w); the list
    is reduced to the first maximal independent subset, whose size is the
    quotient dimension C(k-1, t-1).
    """
    w_values = _vector_values(spec, sub.dim_space, w)
    if all(v == 0 for v in w_values):
        raise UsageError("node star vector w must be nonzero")
    t = len(x)
    k = sub.dim_space
    ambient_inner = ExtBasis(k, sub.degree + 1)
    ambient = ProductBasis(t, ambient_inner)
    rows = ext_tensor_rows(
        spec, x,
        [[w] + unit_vectors(spec, k, mono) for mono in sub.index],
        ambient_inner)
    expected = ext_dim(k - 1, sub.degree)
    kept, _ = rank_filter(spec, rows, limit=expected)
    return [TensorCoords(ambient, Vector(spec, r)) for r in kept]
