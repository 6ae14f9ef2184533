"""Classical product-matrix MSR code at d = 2(k-1), in the symmetric-
matrix and skew-matrix variants: the tests' cross-check oracle.

This is an independent oracle for the t = 2 flavor of the tensor
construction: download follows the pairwise decoupling argument (2x2
solves, then span completion row by row), repair the stacked d x d
helper solve.  Nothing here touches the tensor machinery: vectors are
int lists, matrices int rows with the local helpers below, and inverses
come from the tests' textbook gauss_jordan; nothing calls the library's
linear algebra.

File packers map M = k(k-1) raw symbols to and from the free entries:
row-major upper triangle including the diagonal for symmetric matrices,
row-major strict upper triangle for the skew pair (zero diagonal, the
lower triangle mirrors with a sign).
"""

from __future__ import annotations

from dataclasses import dataclass

from atrahasis.errors import AxiomViolationError, UsageError
from atrahasis.fields import FieldSpec
from conftest import gauss_jordan


def dot(spec: FieldSpec, a: list[int], b: list[int]) -> int:
    acc = 0
    for x, y in zip(a, b):
        acc = spec.add(acc, spec.mul(x, y))
    return acc


def matvec(spec: FieldSpec, rows: list[list[int]], v: list[int]) -> list[int]:
    return [dot(spec, row, v) for row in rows]


def transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def matmul(spec: FieldSpec, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = transpose(b)
    return [[dot(spec, row, col) for col in cols] for row in a]


def invert(spec: FieldSpec, rows: list[list[int]]) -> list[list[int]] | None:
    """Inverse of a square matrix by Gauss-Jordan on [A | I], or None
    when it is singular."""
    n = len(rows)
    pivots, reduced, _ = gauss_jordan(
        spec, [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)], n)
    return [row[n:] for row in reduced] if len(pivots) == n else None


def _plus_scaled(spec: FieldSpec, a: list[int], c: int, b: list[int]) -> list[int]:
    """a + c*b."""
    return [spec.add(x, spec.mul(c, y)) for x, y in zip(a, b)]


def _solve(spec: FieldSpec, rows: list[list[int]], rhs: list[int], axiom: str,
           subset) -> list[int]:
    inverse = invert(spec, rows)
    if inverse is None:
        raise AxiomViolationError(axiom, subset=subset)
    return matvec(spec, inverse, rhs)


@dataclass(frozen=True)
class SymmetricFile:
    """Two symmetric (k-1) x (k-1) matrices carrying the file."""

    spec: FieldSpec
    s1: list[list[int]]
    s2: list[list[int]]

    def __post_init__(self):
        for m in (self.s1, self.s2):
            if any(len(row) != len(m) for row in m) or m != transpose(m):
                raise UsageError("file matrices must be square and symmetric")
        if len(self.s1) != len(self.s2):
            raise UsageError("file matrices must match in size")


@dataclass(frozen=True)
class SkewFile:
    """Two k x k zero-diagonal skew matrices: w A w^T = 0 for every w."""

    spec: FieldSpec
    a1: list[list[int]]
    a2: list[list[int]]

    def __post_init__(self):
        for m in (self.a1, self.a2):
            if any(len(row) != len(m) for row in m):
                raise UsageError("file matrices must be square")
            for i in range(len(m)):
                if m[i][i] != 0:
                    raise UsageError("skew file matrices need zero diagonal")
                for j in range(i + 1, len(m)):
                    if m[j][i] != self.spec.neg(m[i][j]):
                        raise UsageError("skew file matrices must be antisymmetric")
        if len(self.a1) != len(self.a2):
            raise UsageError("file matrices must match in size")


def pack_symmetric(spec: FieldSpec, k: int, raw: list[int]) -> SymmetricFile:
    """M = k(k-1) raw symbols -> (S1, S2), upper triangles row-major."""
    half = _half(raw, k)
    return SymmetricFile(spec, _from_triangle(spec, k - 1, raw[:half], True),
                         _from_triangle(spec, k - 1, raw[half:], True))


def unpack_symmetric(file: SymmetricFile) -> list[int]:
    return _triangle(file.s1, 0) + _triangle(file.s2, 0)


def pack_skew(spec: FieldSpec, k: int, raw: list[int]) -> SkewFile:
    half = _half(raw, k)
    return SkewFile(spec, _from_triangle(spec, k, raw[:half], False),
                    _from_triangle(spec, k, raw[half:], False))


def unpack_skew(file: SkewFile) -> list[int]:
    return _triangle(file.a1, 1) + _triangle(file.a2, 1)


def _half(raw: list[int], k: int) -> int:
    if len(raw) != k * (k - 1):
        raise UsageError(f"expected {k * (k - 1)} raw symbols, got {len(raw)}")
    return len(raw) // 2


def _from_triangle(spec, size, tri, symmetric):
    """A symmetric matrix from its upper triangle with the diagonal, or a
    skew one from its strict upper triangle."""
    it = iter(tri)
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i if symmetric else i + 1, size):
            v = next(it)
            rows[i][j] = v
            rows[j][i] = v if symmetric else spec.neg(v)
    return rows


def _triangle(m, offset):
    return [m[i][j] for i in range(len(m)) for j in range(i + offset, len(m))]


def pm_node(file: SymmetricFile, xi: int, y: list[int]) -> list[int]:
    """Node content y S1 + xi y S2."""
    spec = file.spec
    return _plus_scaled(spec, matvec(spec, transpose(file.s1), y), xi,
                        matvec(spec, transpose(file.s2), y))


def pm_help(file: SymmetricFile, xi_h: int, y_h: list[int], y_f: list[int]) -> int:
    """The single scalar a helper sends: its content dotted with y_f."""
    return dot(file.spec, pm_node(file, xi_h, y_h), y_f)


def _decoupled(spec, node_vectors, xis, stars, sign):
    """(P, Q) with P[i][j], Q[i][j] the two file matrices' bilinear values
    at star vectors i, j, from the cross evaluations of each pair: the
    2x2 system [[1, xi_i], [sign, sign*xi_j]]."""
    k = len(node_vectors)
    if len(set(xis)) != k:
        raise AxiomViolationError("pm-decoupling", subset=range(k),
                                  message="repeated xi makes decoupling singular")
    P = [[0] * k for _ in range(k)]
    Q = [[0] * k for _ in range(k)]
    neg = spec.neg if sign < 0 else (lambda v: v)
    for i in range(k):
        for j in range(i + 1, k):
            c_ij = dot(spec, node_vectors[i], stars[j])
            c_ji = dot(spec, node_vectors[j], stars[i])
            p, q = _solve(spec, [[1, xis[i]], [neg(1), neg(xis[j])]], [c_ij, c_ji],
                          "pm-decoupling", (i, j))
            P[i][j], Q[i][j] = p, q
            P[j][i], Q[j][i] = neg(p), neg(q)
    return P, Q


def pm_download(spec: FieldSpec, node_vectors: list[list[int]], xis: list[int],
                ys: list[list[int]]) -> SymmetricFile:
    """Recover (S1, S2) from k node vectors by pairwise decoupling.

    For each pair (i, j), the two cross evaluations decouple through
    [[1, xi_i], [1, xi_j]] into the S1 and S2 bilinear values; rows
    y_i S1 and y_i S2 then come from a spanning subset of the others,
    and the matrices from a spanning subset of rows.
    """
    k = len(node_vectors)
    size = k - 1

    def assemble(vals):
        # y_i S = solution of (stacked y_j) x = evaluations, j != i
        rows = []
        for i in range(size):
            others = [j for j in range(k) if j != i][:size]
            rows.append(_solve(spec, [ys[j] for j in others],
                               [vals[i][j] for j in others], "pm-span", others))
        # S from y_i S = rows[i], using the first k-1 equations
        inverse = invert(spec, ys[:size])
        if inverse is None:
            raise AxiomViolationError("pm-span", subset=range(size))
        return matmul(spec, inverse, rows)

    P, Q = _decoupled(spec, node_vectors, xis, ys, 1)
    return SymmetricFile(spec, assemble(P), assemble(Q))


def pm_repair(spec: FieldSpec, messages: list[int], helper_xis: list[int],
              helper_ys: list[list[int]], xi_f: int, y_f: list[int]) -> list[int]:
    """Rebuild y_f S1 + xi_f y_f S2 from d = 2(k-1) helper scalars."""
    d, size = len(messages), len(y_f)
    if d != 2 * size:
        raise UsageError(f"repair needs d = {2 * size} messages, got {d}")
    rows = [y + [spec.mul(xi, v) for v in y] for xi, y in zip(helper_xis, helper_ys)]
    stacked = _solve(spec, rows, messages, "pm-repair-span", range(d))
    return _plus_scaled(spec, stacked[:size], xi_f, stacked[size:])


def skew_node(file: SkewFile, xi: int, w: list[int]) -> list[int]:
    """Node content w A1 + xi w A2; always orthogonal to w itself."""
    spec = file.spec
    return _plus_scaled(spec, matvec(spec, transpose(file.a1), w), xi,
                        matvec(spec, transpose(file.a2), w))


def skew_store(content: list[int], w: list[int]) -> list[int]:
    """Drop the coordinate recoverable from content . w = 0: k-1 symbols."""
    i = _anchor(w)
    return content[:i] + content[i + 1:]


def skew_restore(spec: FieldSpec, stored: list[int], w: list[int]) -> list[int]:
    """Reinsert the dropped coordinate using orthogonality to w."""
    i = _anchor(w)
    if len(stored) != len(w) - 1:
        raise UsageError("stored vector has wrong length")
    full = stored[:i] + [0] + stored[i:]
    full[i] = spec.mul(spec.neg(dot(spec, full, w)), spec.inv(w[i]))
    return full


def _anchor(w: list[int]) -> int:
    for i, v in enumerate(w):
        if v:
            return i
    raise UsageError("star vector w must be nonzero")


def skew_help(file: SkewFile, xi_h: int, w_h: list[int], w_f: list[int]) -> int:
    return dot(file.spec, skew_node(file, xi_h, w_h), w_f)


def skew_download(spec: FieldSpec, node_vectors: list[list[int]], xis: list[int],
                  ws: list[list[int]]) -> SkewFile:
    """Recover (A1, A2) from k node vectors; mirrors the symmetric oracle
    with the sign-flipped decoupling and the free zero diagonal."""
    k = len(node_vectors)

    def recover(vals):
        # w_i A . w_j known for all j (including j = i, which is 0):
        # W (w_i A)^T = vals[i] as a column, then W A = rows
        inverse = invert(spec, ws)
        if inverse is None:
            raise AxiomViolationError("pm-span", subset=range(k))
        return matmul(spec, inverse, [matvec(spec, inverse, vals[i]) for i in range(k)])

    A1, A2 = _decoupled(spec, node_vectors, xis, ws, -1)
    return SkewFile(spec, recover(A1), recover(A2))


def skew_repair(spec: FieldSpec, messages: list[int], helper_xis: list[int],
                helper_ws: list[list[int]], xi_f: int, w_f: list[int]) -> list[int]:
    """Rebuild w_f A1 + xi_f w_f A2 from d helper scalars plus the two
    known-zero equations contributed by w_f itself."""
    k, d = len(w_f), len(messages)
    if d != 2 * (k - 1):
        raise UsageError(f"repair needs d = {2 * (k - 1)} messages, got {d}")
    rows = [w + [spec.mul(xi, v) for v in w] for xi, w in zip(helper_xis, helper_ws)]
    rows += [w_f + [0] * k, [0] * k + w_f]
    stacked = _solve(spec, rows, list(messages) + [0, 0], "pm-repair-span", range(d))
    # stacked = [A1 w_f^T ; A2 w_f^T]; w_f A = -(A w_f^T)^T for skew A
    neg = [spec.neg(v) for v in stacked]
    return _plus_scaled(spec, neg[:k], xi_f, neg[k:])
