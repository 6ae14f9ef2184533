import hashlib
import itertools
import json
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrahasis.code import (EXTERIOR, SYMMETRIC, StarFamily, axiom_rows, derive_params,
                            quotient_rows, rs_stars_t2)
from atrahasis.errors import UsageError
from atrahasis.fields import binary_field, prime_field
from atrahasis.fixtures import atrahasis_956
from atrahasis.linalg import det, rank_of_rows
from atrahasis.search import witness_matrix
from atrahasis.tensors import monomials, rank_filter, star_rows
from conftest import ext_product_ints, oracle_star_rows, random_values, sym_product_ints


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
    return [sparse.get(mono, 0) for mono in basis]


def plus_scaled(spec, a, b, c):
    """Sparse a + c*b."""
    out = {mono: spec.add(a.get(mono, 0), spec.mul(c, b.get(mono, 0)))
           for mono in set(a) | set(b)}
    return {mono: v for mono, v in out.items() if v}


def test_basis_dimensions():
    for m in range(1, 6):
        for q in range(0, 5):
            assert len(monomials(SYMMETRIC, m, q)) == comb(m + q - 1, q)
    for k in range(1, 6):
        for q in range(0, k + 2):
            assert len(monomials(EXTERIOR, k, q)) == comb(k, q)
    # degenerate cases collapse to the zero space
    assert monomials(SYMMETRIC, 3, -1) == ()
    assert monomials(EXTERIOR, 3, 4) == ()
    assert monomials(EXTERIOR, 3, -2) == ()
    assert len(monomials(SYMMETRIC, 3, 0)) == 1 == len(monomials(EXTERIOR, 3, 0))


def test_basis_index_ordering():
    b = monomials(SYMMETRIC, 3, 2)
    assert b == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    assert all(b[i] < b[i + 1] for i in range(len(b) - 1))
    e = monomials(EXTERIOR, 4, 2)
    assert e == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


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
    for mono in monomials(EXTERIOR, k, q):
        coord = sparse.get(mono, 0)
        assert det(spec, [[v[c] for c in mono] for v in vectors]) == coord


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
    sub = monomials(SYMMETRIC, 3, 1)
    rows = star_rows(gf16, SYMMETRIC, [1, 0], y, 1)
    dim2 = len(monomials(SYMMETRIC, 3, 2))
    assert len(rows) == len(sub)
    for mono, row in zip(sub, rows):
        inner = sym_product_ints(gf16, 3, [y, [1 if i == mono[0] else 0 for i in range(3)]])
        assert row[:dim2] == dense_of(monomials(SYMMETRIC, 3, 2), inner)
        assert all(v == 0 for v in row[dim2:])


def test_expand_node_basis_sym_fixture_shape(gf16, rng):
    # one node of the 30-symbol instance: 6 tensors of length 30, rank 6
    x = random_values(rng, gf16, 3)
    x[0] = 1
    y = [1] + random_values(rng, gf16, 2)
    rows = star_rows(gf16, SYMMETRIC, x, y, 2)
    assert len(rows) == 6
    assert all(len(row) == 30 for row in rows)
    assert rank_of_rows(gf16, rows) == 6


def test_expand_node_basis_ext_drops_dependents(gf16):
    rows = star_rows(gf16, EXTERIOR, [1, 0], [1, 0, 0], 1)
    kept, _ = rank_filter(gf16, rows)
    assert len(rows) == 3 and len(kept) == 2  # e1 ^ e1 drops out


@pytest.mark.parametrize("k,t", [(3, 2), (4, 2), (4, 3), (5, 3), (6, 4)])
def test_expand_node_basis_ext_dimension(gf16, rng, k, t):
    for _ in range(5):
        w = random_values(rng, gf16, k)
        if all(v == 0 for v in w):
            w[0] = 1
        x = [1] + random_values(rng, gf16, t - 1)
        rows, _ = rank_filter(gf16, star_rows(gf16, EXTERIOR, x, w, t - 1))
        assert len(rows) == comb(k - 1, t - 1)
        assert rank_of_rows(gf16, rows) == len(rows)
        # every output dies under a further wedge with w
        inner_dim = comb(k, t)
        for row in rows:
            block = next(row[c * inner_dim:(c + 1) * inner_dim]
                         for c in range(t) if any(row[c * inner_dim:(c + 1) * inner_dim]))
            wedged = {}
            for mono, coeff in zip(monomials(EXTERIOR, k, t), block):
                if not coeff:
                    continue
                for key, val in ext_product_ints(gf16, k, [w], mono).items():
                    prev = wedged.get(key, 0)
                    wedged[key] = gf16.add(prev, gf16.mul(coeff, val))
            assert all(v == 0 for v in wedged.values())


def test_expand_node_basis_ext_rejects_zero(gf16):
    params = derive_params(6, 3, 4, EXTERIOR)
    xs = [[1, v] for v in range(6)]
    ws = [[1, v, 0] for v in range(6)]
    StarFamily(gf16, params, xs, ws)
    ws[3] = [0, 0, 0]
    with pytest.raises(UsageError, match="zero w"):
        StarFamily(gf16, params, xs, ws)


def test_expand_length_mismatch(gf16):
    for flavor in (SYMMETRIC, EXTERIOR):
        with pytest.raises(UsageError):
            star_rows(gf16, flavor, [1], [1, 2], 1, ([1, 2, 3],))


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _ext_t3_gf127():
    # random star vectors over a prime field, where the wedge sign shows
    spec = prime_field(127)
    params = derive_params(7, 5, 6, EXTERIOR)
    rng = random.Random(3)
    xs = [random_values(rng, spec, 3) for _ in range(7)]
    ws = [[1] + random_values(rng, spec, 4) for _ in range(7)]
    return StarFamily(spec, params, xs, ws)


STAR_FAMILIES = {
    "fixture": atrahasis_956,
    "ext-t3-gf127": _ext_t3_gf127,
    "rs-ext-gf256": lambda: rs_stars_t2(binary_field(8), 12, 5, EXTERIOR),
}

# sha256 of the JSON of every node, message, axiom and (exterior flavor)
# quotient row, in node order
PINNED_ROWS = {
    "fixture": {
        "node": "ed71de128fc8effab37bcbc9178ce598bc7e0ff584058c784d2b8bb372c67e44",
        "message": "8c5b2898816c814855c152cafc1c46d7f169475f5334ed7c252efed97872b5db",
        "axiom": "6ef79b0b4cb62a72ef22f173c2c81a34125ca1acb8e23030cec8157a71c13205",
    },
    "ext-t3-gf127": {
        "node": "271252819a6c5d7ff17ed55a1130e5013a4509e075518db59e39497627581e0f",
        "message": "dcd7e91216103e01cb7368d823a9f6146125f77ff79eaf93b9224ed72ceb4750",
        "axiom": "c16fd7cdc3bcf1553d5124db8a72e3c2ff9ed87496340ba9838c5fedfda30c73",
        "quotient": "62025aa8354409afd23b6879a23310ecd7c11a0c80f2f3b792dc70abfdb20f45",
    },
    "rs-ext-gf256": {
        "node": "0a68304dd5216fc89f784f8ea842382a6c6abded03d072d26b258f4629057db9",
        "message": "ee2c4311c346c41f1b2d6b3f4abc82c2b26c7eb1679885c7dc496d7910509c9d",
        "axiom": "8bb100b2c553043974a5fc6e22db55f2cb999ece02b606cf01f48a6bf05612f6",
        "quotient": "262818b52d7e2c924cf81e2031dce5ae6ffafffac8ab0c42be5b75256694d31d",
    },
}


@pytest.mark.parametrize("name", sorted(STAR_FAMILIES))
def test_star_rows_pinned(name):
    fam = STAR_FAMILIES[name]()
    spec, p = fam.spec, fam.params
    n = p.n
    got = {
        "node": _digest([fam.node_tensor_rows(h) for h in range(n)]),
        "message": _digest([fam.message_tensor_rows(h, f)
                            for h in range(n) for f in range(n) if h != f]),
        "axiom": _digest([axiom_rows(spec, p.flavor, p.t, x, s)
                          for x, s in zip(fam.x_stars, fam.second_stars)]),
    }
    if p.flavor == EXTERIOR:
        got["quotient"] = _digest([quotient_rows(spec, p.flavor, p.t, s)
                                   for s in fam.second_stars])
    assert got == PINNED_ROWS[name]


# (k, d, t) -> sha256 of the witness matrix's rows at seeded star vectors
PINNED_WITNESS = {
    (3, 4, 2): "eb095d4004ac83e665b9fe53102f02a7c228d57baa6727917b8ce0753c5489e9",
    (5, 6, 3): "648712f3785913e881c55644c391a27bdb3996760715fd36de87762024efd8af",
    (7, 8, 4): "a6a0514bcb9e56c08babc12385336eaf4110efadb8bfa0a75d574b06cbdf3f88",
}


@pytest.mark.parametrize("case", sorted(PINNED_WITNESS))
def test_witness_rows_pinned(gf127, case):
    k, d, t = case
    rng = random.Random(f"{k}:{d}:{t}")
    xs = [random_values(rng, gf127, t) for _ in range(d)]
    ys = [random_values(rng, gf127, k - t + 1) for _ in range(d)]
    M = witness_matrix(gf127, t, xs, ys)
    assert _digest(M) == PINNED_WITNESS[case]


# one field for each path of FieldSpec.scale_row: byte tables from the
# log walk (GF(16), GF(256)), a carry-less multiply of the whole row
# (GF(4096)), byte tables over GF(p) (p = 127), entry by entry (p = 65521)
PROPERTY_FIELDS = [binary_field(4), binary_field(8), binary_field(12),
                   prime_field(127), prime_field(65521)]


@st.composite
def star_cases(draw):
    spec = draw(st.sampled_from(PROPERTY_FIELDS))
    # 0 and 1 take their own paths in the builder
    value = st.one_of(st.sampled_from([0, 1]), st.integers(0, spec.order - 1))
    m = draw(st.integers(1, 5))
    vector = st.lists(value, min_size=m, max_size=m)
    return (spec, draw(st.sampled_from([SYMMETRIC, EXTERIOR])),
            draw(st.lists(value, min_size=1, max_size=4)), draw(vector),
            draw(st.integers(0, 3)), tuple(draw(vector) for _ in range(draw(st.integers(0, 2)))))


@settings(max_examples=300, deadline=None)
@given(star_cases())
def test_star_rows_match_dict_product_oracle(case):
    assert star_rows(*case) == oracle_star_rows(*case)
