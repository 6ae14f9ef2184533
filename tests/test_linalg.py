from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from atrahasis import linalg
from atrahasis.code import EXTERIOR, axiom_rows, derive_params, quotient_rows
from atrahasis.errors import UsageError
from atrahasis.fields import binary_field, prime_field
from atrahasis.linalg import (Echelon, SpanSolver, det, first_deficient_subset, matvec,
                              rank_of_rows)
from atrahasis.search import SearchConfig, grow_pool
from atrahasis.tensors import rank_filter
from conftest import gauss_jordan, random_values

# GF(2) and GF(16) have characteristic 2; GF(7) makes the sign matter
FIELDS = (binary_field(1), binary_field(4), prime_field(7))

# A matrix is a list of int rows; the hypothesis strategies hand out
# (spec, rows) pairs.


def random_matrix(rng, spec, r, c):
    return [random_values(rng, spec, c) for _ in range(r)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def matmul(spec, a, b):
    return transpose([matvec(spec, a, col) for col in transpose(b)])


def solve(spec, A, b):
    """x with A x = b, or None: b must lie in the span of A's columns,
    and the coefficients over the columns are x."""
    return SpanSolver(spec, transpose(A), len(A)).coefficients_for(b)


def inverse_times(spec, A, B):
    """A^-1 B for a square A, or None when A is singular: B's columns
    restated over A's columns."""
    n = len(A)
    solver = SpanSolver(spec, transpose(A), n)
    return transpose(solver.coefficient_rows(transpose(B))) if solver.rank == n else None


def invert(spec, A):
    return inverse_times(spec, A, identity(len(A)))


def nullspace_with_free(spec, A):
    """A's kernel basis systematic in the free columns, built as a
    shortening builds its encoder: the free columns are those that are no
    pivot of A's echelon, and kernel vector j holds each unit row's
    coefficient on the unit row at free column j, over A's rows plus the
    unit rows at the free columns."""
    ncols = len(A[0])
    echelon = Echelon(spec, ncols)
    for row in A:
        echelon.offer(row)
    pivots = echelon.pivots
    free = [c for c in range(ncols) if c not in pivots]
    units = identity(ncols)
    solver = SpanSolver(spec, A + [units[f] for f in free], ncols)
    coefficients = solver.coefficient_rows(units)
    return transpose([row[len(A):] for row in coefficients]), free


def combine(spec, coeffs, rows):
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [spec.add(a, spec.mul(c, b)) for a, b in zip(out, row)]
    return out


@st.composite
def matrices(draw, max_rows=6, max_cols=6, square=False):
    """A matrix over one of FIELDS; half of them are products B C with a
    small inner dimension, so rank deficiency is common, not rare."""
    spec = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    symbol = st.integers(0, spec.order - 1)

    def block(r, c):
        return draw(st.lists(st.lists(symbol, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if draw(st.booleans()):
        inner = draw(st.integers(1, max(nrows, ncols)))
        return spec, matmul(spec, block(nrows, inner), block(inner, ncols))
    return spec, block(nrows, ncols)


def leibniz_det(spec, A) -> int:
    """Sum over permutations; the sign from the cycle count."""
    n = len(A)
    total = 0
    for perm in permutations(range(n)):
        seen, cycles = set(), 0
        for start in range(n):
            if start not in seen:
                cycles += 1
                j = start
                while j not in seen:
                    seen.add(j)
                    j = perm[j]
        term = 1
        for i in range(n):
            term = spec.mul(term, A[i][perm[i]])
        if (n - cycles) % 2:
            term = spec.neg(term)
        total = spec.add(total, term)
    return total


def test_rank_identity_and_zero(gf16):
    assert rank_of_rows(gf16, identity(5)) == 5
    assert rank_of_rows(gf16, [[0] * 4] * 3) == 0
    assert rank_of_rows(gf16, []) == 0


def test_rank_vandermonde(gf16):
    points = [1, 2, 3]
    V = [[gf16.pow(a, j) for j in range(3)] for a in points]
    assert rank_of_rows(gf16, V) == 3
    # oracle: the determinant is the product of pairwise differences
    expected = 1
    for i in range(3):
        for j in range(i + 1, 3):
            expected = gf16.mul(expected, gf16.sub(points[j], points[i]))
    assert det(gf16, V) == expected != 0


def test_solve_identity(gf16, rng):
    b = random_values(rng, gf16, 4)
    assert solve(gf16, identity(4), b) == b


def test_solve_decoupling_pair(gf16):
    # [[1, xi_i], [1, xi_j]] with distinct xi is always invertible
    for xi_i in range(16):
        for xi_j in range(16):
            if xi_i == xi_j:
                continue
            A = [[1, xi_i], [1, xi_j]]
            x = solve(gf16, A, [5, 9])
            assert matvec(gf16, A, x) == [5, 9]
            assert matvec(gf16, invert(gf16, A), [5, 9]) == x


def test_solve_inconsistent_returns_none(gf16):
    A = [[1, 2], [1, 2], [0, 1]]
    assert solve(gf16, A, [3, 4, 0]) is None


def test_solve_underdetermined_flagged(gf16):
    A = [[1, 2, 0], [0, 0, 1]]
    b = [7, 5]
    x = solve(gf16, A, b)
    assert matvec(gf16, A, x) == b
    # the columns are dependent, so the solution is not unique
    assert SpanSolver(gf16, transpose(A), len(A)).rank < len(A[0])


def test_solve_multiply_back_random(gf16, rng):
    for _ in range(25):
        n = rng.randrange(1, 8)
        A = random_matrix(rng, gf16, n, n)
        x = random_values(rng, gf16, n)
        b = matvec(gf16, A, x)
        assert matvec(gf16, A, solve(gf16, A, b)) == b


def test_rank_equals_transpose_rank(rng):
    for spec in (binary_field(4), prime_field(127)):
        for size in (10, 35, 60):
            A = random_matrix(rng, spec, size, size)
            assert rank_of_rows(spec, A) == rank_of_rows(spec, transpose(A))


def test_in_span_examples(gf16, rng):
    gens = [random_values(rng, gf16, 5) for _ in range(3)]
    solver = SpanSolver(gf16, gens, 5)
    coeffs = solver.coefficients_for(gens[0])
    assert coeffs is not None
    assert combine(gf16, coeffs, gens) == gens[0]

    coeffs = solver.coefficients_for([0] * 5)
    assert coeffs == [0, 0, 0]

    e1, e2, e3 = ([1 if j == i else 0 for j in range(3)] for i in range(3))
    assert SpanSolver(gf16, [e1, e2], 3).coefficients_for(e3) is None
    assert SpanSolver(gf16, [], 3).coefficients_for(e3) is None
    assert SpanSolver(gf16, [], 3).coefficients_for([0, 0, 0]) == []


def test_in_span_iff_rank_condition(gf16, rng):
    for _ in range(40):
        gens = [random_values(rng, gf16, 4) for _ in range(3)]
        target = random_values(rng, gf16, 4)
        g_rank = rank_of_rows(gf16, gens)
        aug_rank = rank_of_rows(gf16, gens + [target])
        in_span = SpanSolver(gf16, gens, 4).coefficients_for(target) is not None
        assert in_span == (g_rank == aug_rank)


def test_nullspace_systematic(gf16, rng):
    A = random_matrix(rng, gf16, 3, 7)
    basis, free = nullspace_with_free(gf16, A)
    assert len(basis) == 7 - rank_of_rows(gf16, A)
    assert len(free) == len(basis)
    for v in basis:
        assert not any(matvec(gf16, A, v))
    # systematic: reading a combination at the free columns returns its
    # coefficients
    coeffs = random_values(rng, gf16, len(basis))
    combo = combine(gf16, coeffs, basis)
    assert [combo[f] for f in free] == coeffs


def test_invert_roundtrip(gf16, rng):
    for _ in range(10):
        A = random_matrix(rng, gf16, 6, 6)
        Ainv = invert(gf16, A)
        if Ainv is None:
            assert rank_of_rows(gf16, A) < 6
        else:
            assert matmul(gf16, A, Ainv) == identity(6)


def test_det_matches_singularity(rng):
    spec = prime_field(11)
    for _ in range(30):
        A = random_matrix(rng, spec, 4, 4)
        assert (det(spec, A) == 0) == (rank_of_rows(spec, A) < 4)


def test_det_sign_over_prime_field():
    spec = prime_field(7)
    A = [[0, 1], [1, 0]]  # a pure swap: determinant -1
    assert det(spec, A) == 6
    # a 3-cycle of the rows is even
    B = [[0, 2, 0], [0, 0, 3], [5, 0, 0]]
    assert det(spec, B) == spec.mul(spec.mul(2, 3), 5)


def test_span_solver_matches_rank_condition(gf16, rng):
    gens = [random_values(rng, gf16, 6) for _ in range(4)]
    solver = SpanSolver(gf16, gens, 6)
    for _ in range(20):
        target = random_values(rng, gf16, 6)
        coeffs = solver.coefficients_for(target)
        if rank_of_rows(gf16, gens + [target]) > rank_of_rows(gf16, gens):
            assert coeffs is None
        else:
            assert combine(gf16, coeffs, gens) == target


def test_dimension_mismatch_errors(gf16):
    with pytest.raises(UsageError):
        det(gf16, [[1, 2], [3]])
    with pytest.raises(UsageError):
        matvec(gf16, identity(2), [1, 2, 3])
    with pytest.raises(UsageError):
        SpanSolver(gf16, [[1, 2]], 2).coefficients_for([1, 2, 3])
    with pytest.raises(UsageError):
        SpanSolver(gf16, [[1, 2, 3]], 2)
    with pytest.raises(UsageError):
        det(gf16, [[0] * 3] * 2)


# ---- the engine against independent oracles ----

@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=4, square=True))
def test_det_equals_leibniz_expansion(problem):
    spec, A = problem
    assert det(spec, A) == leibniz_det(spec, A)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_of_transpose(problem):
    spec, A = problem
    assert rank_of_rows(spec, A) == rank_of_rows(spec, transpose(A))


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_invert_iff_nonzero_det(problem):
    spec, A = problem
    Ainv = invert(spec, A)
    assert (Ainv is None) == (det(spec, A) == 0)
    if Ainv is not None:
        assert matmul(spec, A, Ainv) == identity(len(A))
        assert matmul(spec, Ainv, A) == identity(len(A))


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=8), st.one_of(st.none(), st.integers(1, 4)))
def test_rank_filter_keeps_a_basis(problem, limit):
    spec, A = problem
    kept, positions = rank_filter(spec, A, limit=limit)
    assert kept == [A[i] for i in positions]
    assert positions == sorted(positions)
    assert rank_of_rows(spec, kept) == len(kept)
    full = rank_of_rows(spec, A)
    assert len(kept) == (full if limit is None else min(full, limit))
    # every row passed over lies in the span of the kept rows; reaching
    # the limit stops the scan at the last kept row
    scanned = positions[-1] + 1 if len(kept) == limit else len(A)
    solver = SpanSolver(spec, kept, len(A[0]))
    for i in range(scanned):
        if i not in positions:
            assert solver.coefficients_for(A[i]) is not None


@settings(max_examples=150, deadline=None)
@given(matrices(max_cols=8))
def test_nullspace_basis_is_systematic(problem):
    spec, A = problem
    basis, free = nullspace_with_free(spec, A)
    assert len(basis) == len(A[0]) - rank_of_rows(spec, A) == len(free)
    for v, f in zip(basis, free):
        assert not any(matvec(spec, A, v))
        assert [v[g] for g in free] == [1 if g == f else 0 for g in free]
    if basis:
        assert rank_of_rows(spec, basis) == len(basis)


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=6), st.data())
def test_span_solver_iff_rank_condition(problem, data):
    spec, A = problem
    ncols = len(A[0])
    target = data.draw(st.lists(st.integers(0, spec.order - 1),
                                min_size=ncols, max_size=ncols))
    coeffs = SpanSolver(spec, A, ncols).coefficients_for(target)
    inside = rank_of_rows(spec, A + [target]) == rank_of_rows(spec, A)
    assert (coeffs is not None) == inside
    if inside:
        assert combine(spec, coeffs, A) == target


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=7, max_cols=7), st.randoms(use_true_random=False))
def test_pivot_columns_depend_only_on_the_row_space(problem, random):
    """Offered in any order, the rows give the same pivot columns: the
    leading columns of the row space, which a shortening's free columns
    are the complement of."""
    spec, A = problem

    def pivots(rows):
        echelon = Echelon(spec, len(A[0]))
        for row in rows:
            echelon.offer(row)
        return sorted(echelon.pivots)

    shuffled = A[:]
    random.shuffle(shuffled)
    assert pivots(A) == pivots(shuffled) == gauss_jordan(spec, A, len(A[0]))[0]


# GF(2^9) has no multiplication table: the carry-less row path
SUBSET_FIELDS = FIELDS + (binary_field(9),)


@st.composite
def subset_problems(draw, fields=SUBSET_FIELDS):
    """Blocks of rows, optional base rows, a subset size and a target
    rank.  Half the problems get duplicate, zero or combined rows spliced
    in, so deficient subsets are common; blocks are of one length half
    the time, so the target often equals a subset's row count."""
    spec = draw(st.sampled_from(fields))
    width = draw(st.integers(1, 6))
    symbol = st.integers(0, spec.order - 1)
    row = st.lists(symbol, min_size=width, max_size=width)
    nblocks = draw(st.integers(0, 6))
    if draw(st.booleans()):
        lengths = [draw(st.integers(0, 3))] * nblocks
    else:
        lengths = draw(st.lists(st.integers(0, 3), min_size=nblocks, max_size=nblocks))
    blocks = [draw(st.lists(row, min_size=n, max_size=n)) for n in lengths]
    base = draw(st.lists(row, max_size=2))
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            pool = base + [r for block in blocks for r in block]
            kind = draw(st.sampled_from(("zero", "duplicate", "combined")))
            if kind == "zero" or not pool:
                new = [0] * width
            elif kind == "duplicate":
                new = list(draw(st.sampled_from(pool)))
            else:
                a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
                fa, fb = draw(symbol), draw(symbol)
                new = [spec.add(spec.mul(fa, x), spec.mul(fb, y)) for x, y in zip(a, b)]
            homes = blocks + [base]
            home = homes[draw(st.integers(0, len(homes) - 1))]
            home.insert(draw(st.integers(0, len(home))), new)
    size = draw(st.integers(0, nblocks + 1))
    rows_in_subset = len(base) + size * (max(map(len, blocks), default=0))
    target = draw(st.sampled_from((width, min(width, rows_in_subset),
                                   draw(st.integers(0, width)))))
    return spec, blocks, size, target, base


def brute_force_first_deficient(spec, blocks, size, target, base):
    for subset in combinations(range(len(blocks)), size):
        rows = list(base) + [row for i in subset for row in blocks[i]]
        if rank_of_rows(spec, rows) < target:
            return subset
    return None


@settings(max_examples=400, deadline=None)
@given(subset_problems())
def test_first_deficient_subset_matches_brute_force(problem):
    spec, blocks, size, target, base = problem
    assert first_deficient_subset(spec, blocks, size, target, base) == \
        brute_force_first_deficient(spec, blocks, size, target, base)
    if not base:
        assert first_deficient_subset(spec, blocks, size, target) == \
            brute_force_first_deficient(spec, blocks, size, target, ())


@settings(max_examples=200, deadline=None)
@given(subset_problems(fields=(binary_field(4), prime_field(31))), st.data())
def test_first_deficient_subset_verdict_ignores_block_order(problem, data):
    # grow_pool walks the pool newest-first and keeps only the verdict
    spec, blocks, size, target, base = problem
    order = data.draw(st.permutations(range(len(blocks))))
    shuffled = [blocks[i] for i in order]
    found = first_deficient_subset(spec, blocks, size, target, base)
    moved = first_deficient_subset(spec, shuffled, size, target, base)
    assert (found is None) == (moved is None)
    for chosen, subset in ((blocks, found), (shuffled, moved)):
        if subset is not None:
            assert len(subset) == size
            rows = list(base) + [row for i in subset for row in chosen[i]]
            assert rank_of_rows(spec, rows) < target


# small fields make dependent complements common, and in the large ones
# a subset of tightly many rows usually spans; GF(2^9) is carry-less
DUAL_FIELDS = (binary_field(1), binary_field(2), prime_field(3), prime_field(7),
               binary_field(8), binary_field(9))


@st.composite
def dual_problems(draw, fields=DUAL_FIELDS):
    """Problems the dual walk takes: up to 8 blocks of one length, a
    subset size near the block count, and most targets the rank of all
    the rows (an exact fit), which is often below the width since the
    rows are drawn from a smaller space.  Half the time that space is
    no larger than a subset's rows span, and splicing adds dependent
    rows, so dependent complements are common."""
    spec = draw(st.sampled_from(fields))
    symbol = st.integers(0, spec.order - 1)
    nblocks = draw(st.integers(1, 8))
    size = draw(st.integers(nblocks // 2, nblocks)
                | st.integers(min(nblocks, nblocks // 2 + 2), nblocks))
    nbase = draw(st.integers(0, 2))
    if draw(st.booleans()):
        # tight: the rows' space is as large as a subset's rows, so that a
        # subset spans it only when none of its rows is dependent
        c = draw(st.integers(1, max(1, min(3, (10 - nbase) // max(1, size)))))
        rank = max(1, nbase + size * c)
    else:
        c, rank = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    width = rank + draw(st.integers(0, 2))
    basis = draw(st.lists(st.lists(symbol, min_size=width, max_size=width),
                          min_size=rank, max_size=rank))

    def row():
        coeffs = draw(st.lists(symbol, min_size=rank, max_size=rank))
        out = [0] * width
        for c, b in zip(coeffs, basis):
            out = [spec.add(x, spec.mul(c, y)) for x, y in zip(out, b)]
        return out

    blocks = [[row() for _ in range(c)] for _ in range(nblocks)]
    base = [row() for _ in range(nbase)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, nblocks - 1)), draw(st.integers(0, c - 1))
        a, b = draw(st.sampled_from(base + [r for block in blocks for r in block])), row()
        blocks[i][j] = draw(st.sampled_from(([0] * width, list(a),
                                             [spec.add(x, y) for x, y in zip(a, b)])))
    full = rank_of_rows(spec, base + [r for block in blocks for r in block])
    target = draw(st.sampled_from((full, full, full, width, draw(st.integers(0, width)))))
    return spec, blocks, size, target, base


def side_taken(spec, blocks, size, target, base):
    """first_deficient_subset's answer, and which side it walked."""
    duals, walks = [], []

    def spy(record, real):
        def call(*args):
            record.append(real(*args))
            return record[-1]
        return call

    with mock.patch.object(linalg, "_dual_blocks", spy(duals, linalg._dual_blocks)), \
            mock.patch.object(linalg, "_walk", spy(walks, linalg._walk)):
        found = first_deficient_subset(spec, blocks, size, target, base)
    if not duals:
        return found, "primal"
    if duals[0] is None:
        return found, "dual refused: no exact fit"
    return found, "dual passed" if len(walks) == 1 else "dual failed, primal re-run"


@settings(max_examples=400, deadline=None)
@given(dual_problems())
def test_first_deficient_subset_dual_side_matches_brute_force(problem):
    found, side = side_taken(*problem)
    event(side)
    expected = brute_force_first_deficient(*problem)
    assert found == expected
    # duality both ways: a dual walk that fails where every subset spans
    # would only cost a primal re-run, so the answer alone cannot see it
    if side.startswith("dual ") and "refused" not in side:
        assert (side == "dual passed") == (expected is None)


def test_first_deficient_subset_dual_side_examples(gf16):
    # 4 single rows of F^2 spanned by e0, e1: 3 of them always span unless
    # two of the three repeat one row; the dual walks 1-subsets of F^2
    e0, e1 = [1, 0], [0, 1]
    both = [gf16.add(a, b) for a, b in zip(e0, e1)]
    assert side_taken(gf16, [[e0], [e1], [both], [e1]], 3, 2, []) == (None, "dual passed")
    assert side_taken(gf16, [[e0], [e1], [e1], [e1]], 3, 2, []) == \
        ((1, 2, 3), "dual failed, primal re-run")
    # rank 2 of width 3: the dual needs the exact fit, so target 3 walks primal
    blocks = [[e0 + [0]], [e1 + [0]], [both + [0]], [e1 + [0]]]
    assert side_taken(gf16, blocks, 3, 2, []) == (None, "dual passed")
    assert side_taken(gf16, blocks, 3, 3, []) == ((0, 1, 2), "dual refused: no exact fit")
    # too few rows to reach the target at all, and too shallow a dual
    assert side_taken(gf16, blocks, 1, 2, []) == ((0,), "primal")
    assert side_taken(gf16, blocks[:3], 2, 2, []) == (None, "primal")


def test_first_deficient_subset_examples(gf16):
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    blocks = [[e[0]], [e[1]], [e[0]], [e[2]]]
    # (0, 2) repeats e0; (0, 1) comes first and is independent
    assert first_deficient_subset(gf16, blocks, 2, 2) == (0, 2)
    assert first_deficient_subset(gf16, blocks, 3, 3) == (0, 1, 2)
    assert first_deficient_subset(gf16, blocks, 2, 3, [e[2]]) == (0, 2)
    assert first_deficient_subset(gf16, blocks, 1, 1) is None
    assert first_deficient_subset(gf16, blocks, 5, 3) is None  # no 5-subsets
    assert first_deficient_subset(gf16, blocks, 0, 1) == ()
    assert first_deficient_subset(gf16, blocks, 0, 1, [e[1]]) is None


def combination(spec, a, b, fa, fb):
    return [spec.add(spec.mul(fa, x), spec.mul(fb, y)) for x, y in zip(a, b)]


@pytest.mark.parametrize("size", [5, 6])
def test_first_deficient_subset_deep_fixture_blocks(fixture_family, size):
    # the fixture's 9 axiom blocks, 3 rows of width 18: walks to depth 5
    # and 6 with multi-row blocks, which subset_problems never reaches
    spec, p = fixture_family.spec, fixture_family.params
    blocks = [axiom_rows(spec, p.flavor, p.t, x, s)
              for x, s in zip(fixture_family.x_stars, fixture_family.second_stars)]
    target = 3 * size
    assert first_deficient_subset(spec, blocks, size, target) is None
    assert brute_force_first_deficient(spec, blocks, size, target, ()) is None
    for j in range(9):
        # row j % 3 of block j becomes a combination of rows of blocks
        # j + 1 and j + 4, so a subset holding all three falls short
        spliced = [list(block) for block in blocks]
        spliced[j][j % 3] = combination(spec, blocks[(j + 1) % 9][0],
                                        blocks[(j + 4) % 9][2], 3, 7)
        found = first_deficient_subset(spec, spliced, size, target)
        assert found is not None
        assert found == brute_force_first_deficient(spec, spliced, size, target, ())


def test_first_deficient_subset_deep_exterior_quotient_pass():
    # verify_axioms' MDSq pass for failed node 0 of the exterior (8,5,6)
    # pool over GF(31): its 15 quotient rows are the base, and the other 7
    # nodes' blocks have 5 rows of width 30 (rank 4, so redundant)
    family = grow_pool(SearchConfig(prime_field(31), derive_params(8, 5, 6, EXTERIOR),
                                    (0, 2, 6), (0, 1, 2, 3, 4))).family
    spec, p = family.spec, family.params
    base = quotient_rows(spec, p.flavor, p.t, family.second_stars[0])
    blocks = [axiom_rows(spec, p.flavor, p.t, x, s)
              for x, s in list(zip(family.x_stars, family.second_stars))[1:]]
    full = len(blocks[0][0])
    cases = [(blocks, 6), (blocks, 5)]
    for j in range(7):
        # rows 2.. of block j become combinations of its first two rows and
        # a base row, so the block adds at most 2 to any prefix
        spliced = [list(block) for block in blocks]
        spliced[j][2:] = [combination(spec, combination(spec, blocks[j][0], blocks[j][1], 1, r),
                                      base[r], 1, 5) for r in range(2, 5)]
        cases.append((spliced, 6))
    answers = set()
    for case, size in cases:
        found = first_deficient_subset(spec, case, size, full, base)
        assert found == brute_force_first_deficient(spec, case, size, full, base)
        answers.add(found)
    assert None in answers and len(answers) > 3


# ---- the engine against a scalar Gauss-Jordan elimination ----

# every binary field (byte slots up to m = 8, 16-bit slots above) and
# primes on both sides of 127, the largest with byte slots
ORACLE_FIELDS = (tuple(binary_field(m) for m in range(1, 17))
                 + tuple(prime_field(p) for p in (2, 3, 7, 31, 127, 131, 251)))


def oracle_rank(spec, rows):
    return len(gauss_jordan(spec, rows, len(rows[0]) if rows else 0)[0])


@st.composite
def spliced_rows(draw, spec, nrows, ncols):
    """nrows random rows, biased to 0, 1 and q-1, with up to three of
    them replaced by a zero row, a duplicate or a combination of two
    others."""
    q = spec.order
    symbol = st.one_of(st.sampled_from((0, 1, q - 1)), st.integers(0, q - 1))
    rows = draw(st.lists(st.lists(symbol, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, min(3, nrows)))):
        pos = draw(st.integers(0, nrows - 1))
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(("zero", "duplicate", "combined")))
        if kind == "zero":
            rows[pos] = [0] * ncols
        elif kind == "duplicate":
            rows[pos] = list(a)
        else:
            fa, fb = draw(symbol), draw(symbol)
            rows[pos] = [spec.sub(spec.mul(fa, x), spec.mul(fb, y)) for x, y in zip(a, b)]
    return rows


@st.composite
def oracle_matrices(draw, square=False):
    spec = draw(st.sampled_from(ORACLE_FIELDS))
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    return spec, draw(spliced_rows(spec, nrows, ncols))


@settings(max_examples=300, deadline=None)
@given(oracle_matrices())
def test_rank_and_nullspace_match_gauss_jordan(problem):
    spec, A = problem
    ncols = len(A[0])
    pivots, rows, _ = gauss_jordan(spec, A, ncols)
    assert rank_of_rows(spec, A) == len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(rows, pivots):
            v[c] = spec.sub(0, row[f])
        basis.append(v)
    got_basis, got_free = nullspace_with_free(spec, A)
    assert got_free == free and got_basis == basis


@settings(max_examples=300, deadline=None)
@given(oracle_matrices(square=True))
def test_det_and_invert_match_gauss_jordan(problem):
    spec, A = problem
    n = len(A)
    pivots, _, factor = gauss_jordan(spec, A, n)
    assert det(spec, A) == (factor if len(pivots) == n else 0)
    aug = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(A)]
    pivots, rows, _ = gauss_jordan(spec, aug, n)
    expected = [row[n:] for row in rows] if len(pivots) == n else None
    assert invert(spec, A) == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.data())
def test_span_solver_matches_gauss_jordan(spec, data):
    width = data.draw(st.integers(1, 6))
    symbol = st.integers(0, spec.order - 1)
    if data.draw(st.booleans()):
        # square generators of full rank (a unit lower triangle times an
        # upper one with a nonzero diagonal) and the unit rows as targets:
        # the coefficient rows are the inverse
        lower = [[data.draw(symbol) if j < i else int(j == i) for j in range(width)]
                 for i in range(width)]
        upper = [[data.draw(symbol if j > i else st.integers(1, spec.order - 1))
                  if j >= i else 0 for j in range(width)] for i in range(width)]
        gens = [combine(spec, row, upper) for row in lower]
        targets = identity(width)
        _, rows, _ = gauss_jordan(spec, [g + t for g, t in zip(gens, targets)], width)
        assert SpanSolver(spec, gens, width).coefficient_rows(targets) == \
            [row[width:] for row in rows]
    else:
        gens = data.draw(spliced_rows(spec, data.draw(st.integers(0, 6)), width))
        # half the targets are combinations of the generators
        targets = data.draw(spliced_rows(spec, 2, width))
        if gens:
            coeffs = data.draw(st.lists(symbol, min_size=len(gens), max_size=len(gens)))
            targets.append(combine(spec, coeffs, gens))
    solver = SpanSolver(spec, gens, width)
    base = oracle_rank(spec, gens)
    assert solver.rank == base
    for target in targets:
        got = solver.coefficients_for(target)
        assert (got is not None) == (oracle_rank(spec, gens + [target]) == base)
        if got is not None:
            # recombined entry by entry, not through the engine
            assert (combine(spec, got, gens) if gens else [0] * width) == target


@settings(max_examples=300, deadline=None)
@given(subset_problems(ORACLE_FIELDS))
def test_first_deficient_subset_matches_gauss_jordan(problem):
    spec, blocks, size, target, base = problem
    expected = next((subset for subset in combinations(range(len(blocks)), size)
                     if oracle_rank(spec, list(base) + [row for i in subset
                                                        for row in blocks[i]]) < target),
                    None)
    assert first_deficient_subset(spec, blocks, size, target, base) == expected


# ---- A^-1 B through SpanSolver ----

# byte slots (GF(16), GF(256), GF(127)) and 16-bit slots (GF(4096),
# GF(65521), the largest prime below 2^16)
INVERSE_TIMES_FIELDS = (binary_field(4), binary_field(8), binary_field(12),
                        prime_field(127), prime_field(65521))


@pytest.mark.parametrize("spec", INVERSE_TIMES_FIELDS, ids=str)
def test_inverse_times_solves_and_flags_singular(spec, rng):
    for n in (1, 3, 6):
        for width in (1, n, 7):
            A = random_matrix(rng, spec, n, n)
            while oracle_rank(spec, A) < n:
                A = random_matrix(rng, spec, n, n)
            B = random_matrix(rng, spec, n, width)
            X = inverse_times(spec, A, B)
            assert matmul(spec, A, X) == B
            assert inverse_times(spec, A, identity(n)) == invert(spec, A)
            if n > 1:
                singular = A[:-1] + [A[0]]
                assert inverse_times(spec, singular, B) is None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(INVERSE_TIMES_FIELDS), st.data())
def test_inverse_times_matches_gauss_jordan(spec, data):
    n = data.draw(st.integers(1, 6))
    A = data.draw(spliced_rows(spec, n, n))
    B = data.draw(spliced_rows(spec, n, data.draw(st.integers(1, 6))))
    pivots, rows, _ = gauss_jordan(spec, [a + b for a, b in zip(A, B)], n)
    expected = [row[n:] for row in rows] if len(pivots) == n else None
    assert inverse_times(spec, A, B) == expected
    if expected is not None:
        assert matmul(spec, A, expected) == B
