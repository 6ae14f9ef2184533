import itertools

import pytest

from atrahasis.errors import UsageError
from atrahasis.fields import binary_field, prime_field
from atrahasis.linalg import Matrix, det, rank_of_rows
from atrahasis.tensors import (ExtBasis, SymBasis, expand_node_basis_ext,
                               expand_node_basis_sym, ext_dim, ext_product_ints,
                               sym_dim, sym_product_ints)
from conftest import random_values


def sorted_product_oracle(spec, vectors, m):
    """Literal sort-the-indices map on the full tensor-power expansion."""
    q = len(vectors)
    buckets = {}
    for idx in itertools.product(range(m), repeat=q):
        coeff = 1
        for vec, i in zip(vectors, idx):
            coeff = spec.mul(coeff, vec[i])
        key = tuple(sorted(idx))
        buckets[key] = spec.add(buckets.get(key, 0), coeff)
    return {k: v for k, v in buckets.items() if v}


def signed_product_oracle(spec, vectors, k):
    """Literal alternating map: kill repeats, sign by sort parity."""
    q = len(vectors)
    buckets = {}
    for idx in itertools.product(range(k), repeat=q):
        if len(set(idx)) != q:
            continue
        coeff = 1
        for vec, i in zip(vectors, idx):
            coeff = spec.mul(coeff, vec[i])
        swaps = sum(1 for a in range(q) for b in range(a + 1, q)
                    if idx[a] > idx[b])
        if swaps % 2:
            coeff = spec.neg(coeff)
        key = tuple(sorted(idx))
        buckets[key] = spec.add(buckets.get(key, 0), coeff)
    return {k_: v for k_, v in buckets.items() if v}


def dense_of(basis, sparse):
    return [sparse.get(mono, 0) for mono in basis.index]


def plus_scaled(spec, a, b, c):
    """Sparse a + c*b."""
    out = {mono: spec.add(a.get(mono, 0), spec.mul(c, b.get(mono, 0)))
           for mono in set(a) | set(b)}
    return {mono: v for mono, v in out.items() if v}


def test_basis_dimensions():
    for m in range(1, 6):
        for q in range(0, 5):
            assert SymBasis(m, q).dim == sym_dim(m, q)
    for k in range(1, 6):
        for q in range(0, k + 2):
            assert ExtBasis(k, q).dim == ext_dim(k, q)
    # degenerate cases collapse to the zero space
    assert SymBasis(3, -1).dim == 0
    assert ExtBasis(3, 4).dim == 0
    assert ExtBasis(3, -2).dim == 0
    assert SymBasis(3, 0).dim == 1 and ExtBasis(3, 0).dim == 1


def test_basis_index_ordering():
    b = SymBasis(3, 2)
    assert b.index == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert all(b.index[i] < b.index[i + 1] for i in range(b.dim - 1))
    e = ExtBasis(4, 2)
    assert e.index == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_expand_sym_unit_pair(gf16):
    assert sym_product_ints(gf16, 2, [[1, 0], [0, 1]]) == {(0, 1): 1}


def test_expand_sym_commutes(gf16, rng):
    y = random_values(rng, gf16, 3)
    yp = random_values(rng, gf16, 3)
    assert sym_product_ints(gf16, 3, [y, yp]) == sym_product_ints(gf16, 3, [yp, y])


@pytest.mark.parametrize("spec_maker,m,q", [
    (lambda: binary_field(4), 3, 3),
    (lambda: binary_field(2), 4, 3),
    (lambda: prime_field(7), 3, 3),
])
def test_expand_sym_matches_bruteforce(spec_maker, m, q, rng):
    spec = spec_maker()
    for _ in range(10):
        vectors = [random_values(rng, spec, m) for _ in range(q)]
        assert sym_product_ints(spec, m, vectors) == \
            sorted_product_oracle(spec, vectors, m)


@pytest.mark.parametrize("spec_maker,k,q", [
    (lambda: binary_field(4), 4, 3),
    (lambda: binary_field(2), 4, 2),
    (lambda: binary_field(2), 4, 3),
    (lambda: prime_field(7), 4, 3),
])
def test_expand_ext_matches_bruteforce(spec_maker, k, q, rng):
    spec = spec_maker()
    for _ in range(10):
        vectors = [random_values(rng, spec, k) for _ in range(q)]
        assert ext_product_ints(spec, k, vectors) == \
            signed_product_oracle(spec, vectors, k)


def test_expand_ext_minor_determinants(rng):
    # each wedge coordinate is the minor on the chosen columns
    spec = prime_field(11)
    k, q = 5, 3
    vectors = [random_values(rng, spec, k) for _ in range(q)]
    sparse = ext_product_ints(spec, k, vectors)
    for mono in ExtBasis(k, q).index:
        coord = sparse.get(mono, 0)
        minor = Matrix(spec, [[v[c] for c in mono] for v in vectors])
        assert det(minor).value == coord


def test_expand_ext_vanishes_on_repeats(gf16, rng):
    v = random_values(rng, gf16, 4)
    w = random_values(rng, gf16, 4)
    assert ext_product_ints(gf16, 4, [v, w, v]) == {}


def test_expand_ext_swap_negates():
    spec = prime_field(7)
    v, w = [1, 2, 3], [4, 5, 6]
    a = ext_product_ints(spec, 3, [v, w])
    b = ext_product_ints(spec, 3, [w, v])
    assert a and a == {mono: spec.neg(x) for mono, x in b.items()}


def test_expand_ext_unit_pair(gf16):
    assert ext_product_ints(gf16, 3, [[1, 0, 0], [0, 1, 0]]) == {(0, 1): 1}


def test_multilinearity(gf16, rng):
    m = 3
    for product in (sym_product_ints, ext_product_ints):
        y1 = random_values(rng, gf16, m)
        y2 = random_values(rng, gf16, m)
        y2p = random_values(rng, gf16, m)
        c = rng.randrange(1, 16)
        bumped = [gf16.add(a, gf16.mul(c, b)) for a, b in zip(y2, y2p)]
        left = product(gf16, m, [y1, bumped])
        right = plus_scaled(gf16, product(gf16, m, [y1, y2]),
                            product(gf16, m, [y1, y2p]), c)
        assert left == right


def test_expand_node_basis_sym_block_structure(gf16, rng):
    # t = 2 with x = e1: the first block carries the product, the second is zero
    y = random_values(rng, gf16, 3)
    sub = SymBasis(3, 1)
    outs = expand_node_basis_sym(gf16, [1, 0], y, sub)
    dim2 = SymBasis(3, 2).dim
    for mono, tc in zip(sub.index, outs):
        inner = sym_product_ints(gf16, 3, [y, [1 if i == mono[0] else 0 for i in range(3)]])
        assert tc.vector.values[:dim2] == dense_of(SymBasis(3, 2), inner)
        assert all(v == 0 for v in tc.vector.values[dim2:])


def test_expand_node_basis_sym_fixture_shape(gf16, rng):
    # one node of the 30-symbol instance: 6 tensors of length 30, rank 6
    x = random_values(rng, gf16, 3)
    x[0] = 1
    y = [1] + random_values(rng, gf16, 2)
    outs = expand_node_basis_sym(gf16, x, y, SymBasis(3, 2))
    assert len(outs) == 6
    assert all(len(tc.vector) == 30 for tc in outs)
    assert rank_of_rows(gf16, [tc.vector.values for tc in outs]) == 6


def test_expand_node_basis_ext_drops_dependents(gf16):
    outs = expand_node_basis_ext(gf16, [1, 0], [1, 0, 0], ExtBasis(3, 1))
    assert len(outs) == 2  # e1 ^ e1 drops out of the three candidates


@pytest.mark.parametrize("k,t", [(3, 2), (4, 2), (4, 3), (5, 3), (6, 4)])
def test_expand_node_basis_ext_dimension(gf16, rng, k, t):
    for _ in range(5):
        w = random_values(rng, gf16, k)
        if all(v == 0 for v in w):
            w[0] = 1
        x = [1] + random_values(rng, gf16, t - 1)
        outs = expand_node_basis_ext(gf16, x, w, ExtBasis(k, t - 1))
        assert len(outs) == ext_dim(k - 1, t - 1)
        rows = [tc.vector.values for tc in outs]
        assert rank_of_rows(gf16, rows) == len(outs)
        # every output dies under a further wedge with w
        inner_dim = ext_dim(k, t)
        for row in rows:
            block = next(row[c * inner_dim:(c + 1) * inner_dim]
                         for c in range(t) if any(row[c * inner_dim:(c + 1) * inner_dim]))
            wedged = {}
            for mono, coeff in zip(ExtBasis(k, t).index, block):
                if not coeff:
                    continue
                for key, val in ext_product_ints(gf16, k, [w], mono).items():
                    prev = wedged.get(key, 0)
                    wedged[key] = gf16.add(prev, gf16.mul(coeff, val))
            assert all(v == 0 for v in wedged.values())


def test_expand_node_basis_ext_rejects_zero(gf16):
    with pytest.raises(UsageError):
        expand_node_basis_ext(gf16, [1, 0], [0, 0, 0], ExtBasis(3, 1))


def test_expand_length_mismatch(gf16):
    with pytest.raises(UsageError):
        sym_product_ints(gf16, 2, [[1, 2], [1, 2, 3]])
    with pytest.raises(UsageError):
        ext_product_ints(gf16, 2, [[1, 2], [1, 2, 3]])
