"""Canonical monomial bases of symmetric and exterior powers, and the one
builder of the codes' tensor rows.

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

Every tensor a code evaluates the file at has one shape: a node's basis,
a help message's basis and the repair-span axiom's rows are all
x tensor (s . e_eta . targets) for the monomials eta of one degree.
star_rows builds them, in the x-major product basis (one block of the
inner power per coordinate of x).
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


class _MonomialBasis:
    """The monomials of one degree q over F^m, in canonical order."""

    __slots__ = ("dim_space", "degree", "index", "position")

    def __init__(self, m: int, q: int):
        self.dim_space = m
        self.degree = q
        # itertools rejects a negative degree; its power is the zero space
        self.index = list(self._tuples(range(m), q)) if q >= 0 else []
        self.position = {t: i for i, t in enumerate(self.index)}

    @property
    def dim(self) -> int:
        return len(self.index)

    def __repr__(self):
        return (f"{type(self).__name__}(m={self.dim_space}, q={self.degree}, "
                f"dim={self.dim})")


class SymBasis(_MonomialBasis):
    """Monomial basis of the degree-q symmetric power of F^m."""

    __slots__ = ()
    _tuples = staticmethod(combinations_with_replacement)


class ExtBasis(_MonomialBasis):
    """Wedge basis of the degree-q exterior power of F^k."""

    __slots__ = ()
    _tuples = staticmethod(combinations)


def _check_length(m: int, v) -> None:
    if len(v) != m:
        raise UsageError(f"expected vector of length {m}, got {len(v)}")


def sym_product_ints(spec: FieldSpec, m: int, vectors, monomial: tuple = ()) -> dict:
    """Sparse coordinates of (v_1 . v_2 ... v_q) . e_monomial in S^(q+|monomial|)F^m.

    Returns {sorted index tuple: coefficient}.
    """
    add, mul = spec.add, spec.mul
    acc = {tuple(sorted(monomial)): 1}
    for v in vectors:
        _check_length(m, v)
        nxt: dict = {}
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
    for v in reversed(vectors):
        _check_length(k, v)
        nxt: dict = {}
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


def sym_tensor_rows(spec: FieldSpec, x, vectors: list, monomials: list[tuple],
                    inner: SymBasis) -> list[list[int]]:
    """x tensor (v_1 . v_2 ... v_j . e_eta) for each monomial eta, densified
    over X tensor inner."""
    return _tensor_rows(sym_product_ints, spec, x, vectors, monomials, inner)


def ext_tensor_rows(spec: FieldSpec, x, vectors: list, monomials: list[tuple],
                    inner: ExtBasis) -> list[list[int]]:
    """x tensor (v_1 ^ v_2 ^ ... ^ v_j ^ e_eta) for each wedge eta, densified
    over X tensor inner."""
    return _tensor_rows(ext_product_ints, spec, x, vectors, monomials, inner)


def _tensor_rows(product, spec, x, vectors, monomials, inner) -> list[list[int]]:
    rows = []
    for mono in monomials:
        dense = [0] * inner.dim
        for key, c in product(spec, inner.dim_space, vectors, mono).items():
            dense[inner.position[key]] = c
        rows.append(tensor_with_x_ints(spec, x, dense))
    return rows


@lru_cache(maxsize=None)
def _basis(flavor: str, m: int, q: int):
    return SymBasis(m, q) if flavor == SYMMETRIC else ExtBasis(m, q)


def star_rows(spec: FieldSpec, flavor: str, x, s, degree: int,
              targets: tuple = ()) -> list[list[int]]:
    """x tensor (s . e_eta . targets) for every monomial eta of `degree`
    over the space of s, in canonical order of eta: symmetric products,
    or wedges in that order in the exterior flavor.

    Each product starts from e_eta (the monomial start of the product
    maps) and multiplies s and the targets in; in the exterior flavor that
    is s ^ targets ^ e_eta, which differs from s ^ e_eta ^ targets by the
    sign (-1)^(degree * len(targets)), carried on x.
    """
    vectors = [s, *targets]
    monomials = _basis(flavor, len(s), degree).index
    inner = _basis(flavor, len(s), 1 + degree + len(targets))
    if flavor == SYMMETRIC:
        return sym_tensor_rows(spec, x, vectors, monomials, inner)
    if degree * len(targets) % 2:
        x = [spec.neg(v) for v in x]
    return ext_tensor_rows(spec, x, vectors, monomials, inner)


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
