import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrahasis.errors import UsageError
from atrahasis.fields import (DEFAULT_REDUCTION_POLY, FieldSpec, _clmul, _poly_mod,
                              binary_field, poly_is_irreducible, prime_field)

IRREDUCIBLE_UP_TO_256 = [p for m in range(1, 9) for p in range(1 << m, 1 << (m + 1))
                         if poly_is_irreducible(p)]


def test_gf16_uses_standard_quartic(gf16):
    assert gf16.reduction_poly == 0x13  # z^4 + z + 1
    assert gf16.order == 16


def test_addition_is_xor_in_characteristic_two(gf16):
    z = 2
    for a in range(gf16.order):
        assert gf16.add(a, a) == 0
        assert gf16.sub(a, a) == 0
    assert gf16.add(z, 0) == z


def test_prime_addition():
    f = prime_field(127)
    assert f.add(100, 50) == 23
    assert f.sub(50, 100) == 77


def test_gf16_multiplication_reduces():
    gf16 = binary_field(4)
    z, z3 = 2, 8
    # z^3 * z = z^4 = z + 1 under z^4 + z + 1
    assert gf16.mul(z3, z) == 0b0011


def test_multiplicative_identity_and_group_order(gf16):
    for a in range(gf16.order):
        assert gf16.mul(a, 1) == a
        if a != 0:
            assert gf16.pow(a, 15) == 1


def test_inverse_examples(gf16):
    assert gf16.inv(1) == 1
    # z * b = 1 mod z^4+z+1 has b = z^3 + 1
    assert gf16.inv(2) == 0b1001
    f = prime_field(127)
    assert f.inv(2) == 64
    with pytest.raises(ZeroDivisionError):
        gf16.inv(0)


def test_pow_conventions(gf16):
    z = 2
    assert gf16.pow(z, 4) == 0b0011
    assert gf16.pow(0, 0) == 1  # empty product, even at 0
    assert gf16.pow(z, -3) == gf16.pow(z, 12)  # exponent mod group order 15
    with pytest.raises(ZeroDivisionError):
        gf16.pow(0, -1)


def test_enumerate_elements():
    # the canonical elements of a field of order q are exactly 0..q-1
    for spec in (binary_field(1), binary_field(2), binary_field(4), prime_field(7)):
        candidates = range(-2, spec.order + 3)
        accepted = []
        for v in candidates:
            try:
                accepted.append(spec.check_value(v))
            except UsageError:
                pass
        assert accepted == list(range(spec.order))


@pytest.mark.parametrize("spec", [binary_field(1), binary_field(2),
                                  binary_field(3), binary_field(4)])
def test_field_axioms_exhaustive(spec):
    elems = list(range(spec.order))
    for a, b, c in itertools.product(elems, repeat=3):
        assert spec.add(a, b) == spec.add(b, a)
        assert spec.mul(a, b) == spec.mul(b, a)
        assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
    for a in elems:
        assert spec.add(a, spec.neg(a)) == 0
        if a:
            assert spec.mul(a, spec.inv(a)) == 1


def test_field_axioms_random_large(rng):
    for spec in (prime_field(127), binary_field(9)):
        for _ in range(300):
            a, b, c = (rng.randrange(spec.order) for _ in range(3))
            assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b),
                                                           spec.mul(a, c))
            assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))


@pytest.mark.parametrize("spec", [binary_field(4), binary_field(8),
                                  prime_field(127), prime_field(251)])
def test_inverse_roundtrip_exhaustive(spec):
    for a in range(1, spec.order):
        assert spec.mul(a, spec.inv(a)) == 1


@pytest.mark.parametrize("m", range(9, 17))
def test_inverse_sampled_large_binary(m, rng):
    spec = binary_field(m)
    for a in [1, 2, spec.order - 1] + rng.sample(range(1, spec.order), 200):
        inv = spec.inv(a)
        assert 0 < inv < spec.order
        assert spec.mul(a, inv) == 1
        assert spec.inv(inv) == a
    with pytest.raises(ZeroDivisionError):
        spec.inv(0)


def test_frobenius_gf16(gf16):
    sq = lambda a: gf16.mul(a, a)
    for a in range(16):
        for b in range(16):
            assert sq(gf16.add(a, b)) == gf16.add(sq(a), sq(b))


def test_builtin_polynomials_all_irreducible():
    for m in range(1, 17):
        spec = binary_field(m)  # construction verifies irreducibility
        assert spec.reduction_poly == DEFAULT_REDUCTION_POLY[m]
        assert poly_is_irreducible(spec.reduction_poly)


def irreducible_by_trial_division(p):
    """Reference: no polynomial of degree 1..deg/2 divides p."""
    m = p.bit_length() - 1
    return m >= 1 and all(_poly_mod(p, q) for d in range(1, m // 2 + 1)
                          for q in range(1 << d, 1 << (d + 1)))


def test_irreducibility_matches_trial_division():
    # every polynomial of degree 0..12, constants (not irreducible) included
    for p in range(1 << 13):
        assert poly_is_irreducible(p) == irreducible_by_trial_division(p), hex(p)


def test_reducible_polynomial_error_text():
    for poly in (0b10101, 0b10000, 0x10145):  # (z^2+z+1)^2, z^4, (z^8+z^4+z^3+z+1)^2
        m = poly.bit_length() - 1
        assert not irreducible_by_trial_division(poly)
        with pytest.raises(UsageError, match=f"reduction polynomial {poly:#x} is "
                                             f"reducible over GF\\(2\\)$"):
            binary_field(m, poly)


def test_bad_reduction_polynomials_rejected():
    with pytest.raises(UsageError):
        binary_field(4, 0b10101)  # z^4 + z^2 + 1 = (z^2+z+1)^2
    with pytest.raises(UsageError):
        binary_field(4, 0b1011)  # degree 3, not 4
    with pytest.raises(UsageError):
        prime_field(128)
    with pytest.raises(UsageError):
        FieldSpec("ternary")


def test_caller_supplied_polynomial():
    alt = binary_field(4, 0b11001)  # z^4 + z^3 + 1, also irreducible
    assert alt != binary_field(4)
    for a in range(1, 16):
        assert alt.mul(a, alt.inv(a)) == 1


def test_check_value_rejects_non_canonical(gf16):
    for bad in (77, 16, -1, 3.0, "3", None):
        with pytest.raises(UsageError, match="not a canonical element"):
            gf16.check_value(bad)
    assert gf16.check_value(15) == 15


def test_spec_serialization_roundtrip(gf16):
    for spec in (gf16, prime_field(127), binary_field(9)):
        assert FieldSpec.from_dict(spec.to_dict()) == spec
    d = gf16.to_dict()
    assert d == {"kind": "binary-extension", "m": 4, "reduction_poly": "13",
                 "p": None}


def test_every_small_binary_field_is_counted():
    # number of irreducible binary polynomials of degree 1..8 (OEIS A001037)
    counts = [sum(1 for p in IRREDUCIBLE_UP_TO_256 if p.bit_length() - 1 == m)
              for m in range(1, 9)]
    assert counts == [2, 1, 2, 3, 6, 9, 18, 30]


@pytest.mark.parametrize("poly", IRREDUCIBLE_UP_TO_256, ids=hex)
def test_tables_match_carryless_reference(poly):
    m = poly.bit_length() - 1
    spec = binary_field(m, poly)
    q = spec.order
    # _clmul reduces with _poly_mod on every call; the tables come from
    # the log/antilog walk, so every entry is checked against it; a row
    # is a 256-byte translate table, zero past q, built on first read
    assert [spec._mul_row(a) for a in range(q)] == [
        bytes([_clmul(a, b, poly) for b in range(q)]).ljust(256, b"\0") for a in range(q)]
    for a in range(1, q):
        assert _clmul(a, spec.inv(a), poly) == 1
    with pytest.raises(ZeroDivisionError):
        spec.inv(0)


def test_gf256_product_rows_built_in_any_order():
    # construction builds no product row beyond row 0; each row is built
    # the first time mul reads it, whatever the order
    spec = binary_field(8)
    assert list(spec._mul_table) == [0]
    pairs = list(itertools.product(range(256), repeat=2))
    random.Random(8).shuffle(pairs)
    for a, b in pairs:
        assert spec.mul(a, b) == _clmul(a, b, spec.reduction_poly)
    assert sorted(spec._mul_table) == list(range(256))


def test_default_gf256_generator_is_not_z():
    # z has order 51 under 0x11B, so a table builder that took z as the
    # generator would cover only 51 of the 255 nonzero elements
    spec = binary_field(8)
    assert spec.reduction_poly == 0x11B
    order, x = 1, 2
    while x != 1:
        x = _clmul(x, 2, spec.reduction_poly)
        order += 1
    assert order == 51


@settings(max_examples=200, deadline=None)
@given(st.integers(9, 16), st.data())
def test_wide_field_mul_axioms(m, data):
    spec = binary_field(m)
    a, b, c = (data.draw(st.integers(0, spec.order - 1)) for _ in range(3))
    assert spec.mul(a, b) == spec.mul(b, a)
    assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
    assert spec.mul(a, b ^ c) == spec.mul(a, b) ^ spec.mul(a, c)


# m = 8 and p = 127 are the largest fields with byte slots (translate
# tables, and for GF(p) the carry-free SWAR reduction); m = 9 takes the
# 32-bit slots of the whole-row carry-less multiply, p = 131 and p = 251
# the 16-bit slots and entry-by-entry products, p = 65537 32-bit ones
ROW_FIELDS = ([binary_field(m) for m in range(1, 17)]
              + [prime_field(p) for p in (7, 127, 131, 251, 65537)])


@pytest.mark.parametrize("spec", ROW_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_row_operations_match_elementwise(spec, data):
    # 0, 1 and q-1 are drawn often: the zero-entry skip, f = 0 and f = 1
    # are where a fast row path differs from entry-by-entry arithmetic,
    # and all-(q-1) rows make the largest SWAR sums
    q = spec.order
    value = st.one_of(st.sampled_from((0, 1, q - 1)), st.integers(0, q - 1))
    n = data.draw(st.one_of(st.sampled_from((0, 1, 300)), st.integers(0, 12)))
    row_of = st.one_of(st.just([0] * n), st.just([q - 1] * n),
                       st.lists(value, min_size=n, max_size=n))
    row, other = data.draw(row_of), data.draw(row_of)
    f = data.draw(value)
    packed_row, packed_other = spec.row_bytes(row), spec.row_bytes(other)
    assert len(packed_row) == n * spec.slot_bytes
    assert spec.row_values(packed_row) == row
    result = spec.sub_scaled_row(int.from_bytes(packed_row, "big"), f, packed_other)
    # to_bytes raises if anything carried out of the top slot
    assert spec.row_values(result.to_bytes(len(packed_row), "big")) == [
        spec.sub(a, spec.mul(f, b)) for a, b in zip(row, other)]
    assert spec.row_values(spec.scale_row(f, packed_other)) == [
        spec.mul(f, b) for b in other]


def test_slot_width_at_the_representation_edges():
    assert [binary_field(m).slot_bytes for m in (1, 8, 9, 16)] == [1, 1, 4, 4]
    assert [prime_field(p).slot_bytes for p in (2, 127, 131, 251, 32749, 65537)] == \
        [1, 1, 2, 2, 2, 4]
    with pytest.raises(UsageError, match="2\\^63"):
        prime_field((1 << 63) + 29)
