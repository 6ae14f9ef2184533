import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from atrahasis.code import (EXTERIOR, SYMMETRIC, StarFamily, help_matrix, repair_matrix,
                            rs_stars_t2)
from atrahasis.errors import AxiomViolationError, UsageError
from atrahasis.fields import binary_field
from atrahasis.fixtures import atrahasis_956
from atrahasis.linalg import matvec
from atrahasis.transforms import (CASCADE, NAIVE, STRATEGIES, SUBSPACE, ShortenedCode,
                                  central_repair_program, shorten, subspace_bandwidth)
from conftest import (cascade_bandwidth, central_repair_two, cutset_two_failure_bandwidth,
                      naive_bandwidth, random_values, subspace_optimality_gap,
                      transfer_oracle)


def test_shorten_parameters(fixture_family):
    sc = shorten(fixture_family, 1)
    assert (sc.n, sc.k, sc.d, sc.alpha, sc.beta) == (8, 4, 5, 6, 3)
    assert sc.M == 24  # (k-1) * alpha after one shortening
    assert sc.pinned == (8,)
    assert sc.d - sc.k + 1 == 2  # invariant under shortening


def test_shorten_zero_depth_is_identity(gf16, fixture_family, rng):
    sc = shorten(fixture_family, 0)
    raw = random_values(rng, gf16, 30)
    phi = sc.encode(raw)
    assert phi == raw
    assert sc.decode(phi) == raw


def test_shortened_encode_rejects_non_canonical_symbols(gf16, fixture_family, rng):
    sc = shorten(fixture_family, 1)
    raw = random_values(rng, gf16, sc.M)
    for bad in (16, -1):
        with pytest.raises(UsageError, match="not a canonical element"):
            sc.encode(raw[:-1] + [bad])


def test_shorten_depth_bounds(fixture_family):
    with pytest.raises(UsageError):
        shorten(fixture_family, 5)
    with pytest.raises(UsageError):
        shorten(fixture_family, -1)


def test_shortened_encode_pins_contents(gf16, fixture_family, rng):
    sc = shorten(fixture_family, 2)
    raw = random_values(rng, gf16, sc.M)
    phi = sc.encode(raw)
    base = shorten(fixture_family, 0)
    for h in sc.pinned:
        assert not any(base.node_content(phi, h).values)
    assert sc.decode(phi) == raw


def test_shortened_download_and_repair(gf16, fixture_family, rng):
    sc = shorten(fixture_family, 1)
    raw = random_values(rng, gf16, sc.M)
    phi = sc.encode(raw)
    contents = [sc.node_content(phi, h) for h in range(8)]
    for K in list(combinations(range(8), 4))[:20]:
        assert sc.download([contents[h] for h in K]) == raw
    f = 2
    for H in list(combinations([h for h in range(8) if h != f], 5))[:10]:
        msgs = [sc.help_message(contents[h], f) for h in H]
        assert all(len(m.values) == 3 for m in msgs)
        assert sc.repair(msgs).values == contents[f].values
    with pytest.raises(UsageError):
        sc.download(contents[:3])
    with pytest.raises(UsageError):
        sc.node_content(phi, 8)  # retired node is not addressable


def test_double_shorten_composes(gf16, fixture_family, rng):
    twice = shorten(shorten(fixture_family, 1), 1)
    direct = shorten(fixture_family, 2)
    assert twice.pinned == direct.pinned
    assert (twice.n, twice.k, twice.d) == (direct.n, direct.k, direct.d)
    raw = random_values(rng, gf16, direct.M)
    assert twice.encode(raw) == direct.encode(raw)
    phi = direct.encode(raw)
    contents = [direct.node_content(phi, h) for h in range(7)]
    assert twice.download(contents[:3]) == raw
    assert direct.download(contents[:3]) == raw


# codes whose single repairs code.repair_matrix and repair_program must
# agree on: the t = 3 fixture, and t = 2 codes over GF(256) and GF(2^12)
REPAIR_CODES = {
    "fixture": atrahasis_956,
    "rs-12-5-8-sym": lambda: rs_stars_t2(binary_field(8), 12, 5, SYMMETRIC),
    "rs-12-5-8-ext": lambda: rs_stars_t2(binary_field(8), 12, 5, EXTERIOR),
    "rs-6-3-4-gf4096": lambda: rs_stars_t2(binary_field(12), 6, 3, SYMMETRIC),
}


@pytest.mark.parametrize("name", sorted(REPAIR_CODES))
def test_repair_matrix_matches_repair_program(name):
    # the scalar repair matrix is the store's single-failure program: every
    # helper sends its whole help message, and the recoveries are equal
    fam = REPAIR_CODES[name]()
    code = ShortenedCode(fam, 0)
    rng = random.Random(name)
    for f in range(code.n):
        others = [h for h in range(code.n) if h != f]
        for _ in range(4):
            helpers = rng.sample(others, code.d)
            sends, (recover,) = code.repair_program([f], helpers)
            assert sends == [(h, help_matrix(fam, h, f)) for h in helpers]
            assert recover == repair_matrix(fam, f, helpers)


# (base family, depth): the codes whose store matrices transfer_matrix
# must reproduce entry for entry
TRANSFER_CODES = {
    "fixture": (atrahasis_956, 0),
    "rs-11-4-7-gf256": (lambda: rs_stars_t2(binary_field(8), 12, 5, SYMMETRIC), 1),
    "rs-6-3-4-gf4096": (lambda: rs_stars_t2(binary_field(12), 6, 3, SYMMETRIC), 0),
    "rs-12-5-8-ext-depth-2": (lambda: rs_stars_t2(binary_field(8), 12, 5, EXTERIOR), 2),
}


@pytest.mark.parametrize("name", sorted(TRANSFER_CODES))
def test_transfer_matrix_matches_the_product_oracle(name):
    # put's parity, and the dense get from every k live nodes, against the
    # put rows times the decode matrix that the store used to multiply out
    make, depth = TRANSFER_CODES[name]
    code = ShortenedCode(make(), depth)
    parity = range(code.k, code.n)
    assert code.transfer_matrix(range(code.k), parity) == \
        transfer_oracle(code, range(code.k), parity)
    for nodes in combinations(range(code.n), code.k):
        assert code.transfer_matrix(nodes, range(code.k)) == \
            transfer_oracle(code, nodes, range(code.k))


def test_transfer_matrix_rejects_bad_sources(gf16):
    code = ShortenedCode(rs_stars_t2(gf16, 6, 3, SYMMETRIC), 1)
    for sources in ([0], [0, 0], [0, 5], [0, -1]):
        with pytest.raises(UsageError):
            code.transfer_matrix(sources, [2])
    with pytest.raises(UsageError):
        code.transfer_matrix([0, 1], [5])
    # a base whose last two nodes coincide: they do not span
    fam = rs_stars_t2(gf16, 6, 3, SYMMETRIC)
    broken = StarFamily(gf16, fam.params,
                        fam.x_stars[:5] + [fam.x_stars[4]],
                        fam.second_stars[:5] + [fam.second_stars[4]])
    with pytest.raises(AxiomViolationError, match="download-span"):
        ShortenedCode(broken, 0).transfer_matrix([0, 4, 5], [1])


def test_shortened_decode_names_the_live_k(gf16, fixture_family, rng):
    # the fixture shortened by 1 has k = 4; the base code's k is 5
    code = shorten(fixture_family, 1)
    file = code.encode(random_values(rng, gf16, code.M))
    repeated = [code.node_content(file, h) for h in (0, 0, 1, 2)]
    for call in (lambda: code.decode_matrix([0, 1, 2]),
                 lambda: code.decode_matrix([0, 0, 1, 2]),
                 lambda: code.download(repeated)):
        with pytest.raises(UsageError, match="exactly 4 distinct") as caught:
            call()
        assert "5" not in str(caught.value)


def test_store_matrices_leave_the_encoder_unbuilt(fixture_family):
    code = shorten(fixture_family, 1)
    code.transfer_matrix(range(code.k), range(code.k, code.n))
    code.repair_program([0], list(range(1, code.d + 1)))
    code.repair_program([0, 1], list(range(2, code.d + 2)))
    assert "encoder" not in vars(code)
    assert len(code.encoder) == fixture_family.params.M
    assert "encoder" in vars(code)


def test_shorten_detects_degenerate_base(gf16):
    # a base whose last two nodes coincide cannot cut 2*alpha dimensions
    fam = rs_stars_t2(gf16, 6, 3, SYMMETRIC)
    broken = StarFamily(gf16, fam.params,
                        fam.x_stars[:5] + [fam.x_stars[4]],
                        fam.second_stars[:5] + [fam.second_stars[4]])
    with pytest.raises(AxiomViolationError):
        ShortenedCode(broken, 2)


def test_bandwidth_formulas_at_k5():
    assert naive_bandwidth(5, 6) == 30
    assert cascade_bandwidth(5, 6) == 28
    assert subspace_bandwidth(5) == 27


@pytest.mark.parametrize("k", [5, 7, 9, 11, 13])
def test_bandwidth_ordering_and_gap(k):
    d = 3 * (k - 1) // 2
    assert subspace_bandwidth(k) <= cascade_bandwidth(k, d) <= naive_bandwidth(k, d)
    # exact closed form of the distance to the cut-set floor
    assert subspace_optimality_gap(k) == 3 * k - 18 + Fraction(36, k + 1)
    assert cutset_two_failure_bandwidth(k) == \
        Fraction(3 * (k - 1) ** 2 * (k - 2), k + 1)


def test_central_repair_strategies(gf16, fixture_family, rng):
    fam = fixture_family
    code = shorten(fam, 0)
    phi = code.encode(random_values(rng, gf16, 30))
    f, g = 1, 7
    helpers = [0, 2, 3, 4, 5, 6]
    want_f = code.node_content(phi, f).values
    want_g = code.node_content(phi, g).values
    for strategy, bw in ((NAIVE, 30), (CASCADE, 28), (SUBSPACE, 27)):
        cf, cg, plan = central_repair_two(phi, fam, f, g, helpers, strategy)
        assert cf.values == want_f and cg.values == want_g
        assert plan.total_bandwidth == bw
        assert sum(c for _, c in plan.per_helper_sent) == bw
    # cascade: d-1 full pair messages plus one single-target message
    program = central_repair_program(fam, f, g, helpers, CASCADE)
    sent = [c for _, c in program.plan.per_helper_sent]
    assert sent == [5, 5, 5, 5, 5, 3]


def test_central_repair_zero_file(gf16, fixture_family):
    phi = [0] * 30
    cf, cg, plan = central_repair_two(phi, fixture_family, 0, 1,
                                      [2, 3, 4, 5, 6, 7], SUBSPACE)
    assert not any(cf.values) and not any(cg.values)
    assert plan.total_bandwidth == 27  # bandwidth is structural


def test_central_repair_usage_errors(gf16, fixture_family):
    phi = [0] * 30
    with pytest.raises(UsageError):
        central_repair_two(phi, fixture_family, 1, 1, [0, 2, 3, 4, 5, 6], NAIVE)
    with pytest.raises(UsageError):
        central_repair_two(phi, fixture_family, 0, 1, [1, 2, 3, 4, 5, 6], NAIVE)
    with pytest.raises(UsageError):
        central_repair_two(phi, fixture_family, 0, 1, [2, 3, 4, 5, 6], NAIVE)
    with pytest.raises(UsageError):
        central_repair_two(phi, fixture_family, 0, 1, [2, 3, 4, 5, 6, 7], "other")


@pytest.mark.parametrize("flavor", [SYMMETRIC, EXTERIOR])
def test_central_repair_on_t2_codes(gf16, rng, flavor):
    # no t = 3 closed form is needed: a t = 2 pair is repaired exactly
    t2 = rs_stars_t2(gf16, 6, 3, flavor)
    code = shorten(t2, 0)
    phi = code.encode(random_values(rng, gf16, code.M))
    for strategy, bw in ((NAIVE, 8), (CASCADE, 7), (SUBSPACE, 6)):
        cf, cg, plan = central_repair_two(phi, t2, 0, 1, [2, 3, 4, 5], strategy)
        assert cf.values == code.node_content(phi, 0).values
        assert cg.values == code.node_content(phi, 1).values
        assert plan.total_bandwidth == bw


def test_repair_program_failed_counts(fixture_family):
    sc = shorten(fixture_family, 0)
    for failed in ([], [0, 1, 2]):
        with pytest.raises(UsageError, match=f"got {len(failed)}"):
            sc.repair_program(failed, [3, 4, 5, 6, 7, 8])
    with pytest.raises(UsageError, match="cascade repair rebuilds 2 failed"):
        sc.repair_program([0], [1, 2, 3, 4, 5, 6], CASCADE)
    with pytest.raises(UsageError, match="must differ"):
        sc.repair_program([0, 0], [1, 2, 3, 4, 5, 6])
    with pytest.raises(UsageError, match="not a live node"):
        shorten(fixture_family, 1).repair_program([0, 1], [2, 3, 4, 5, 8])


def test_central_repair_messages_use_only_helper_contents(gf16, fixture_family, rng):
    # the transmitted symbols are linear in each helper's alpha stored
    # values: check one helper's send matrix against direct evaluation
    code = shorten(fixture_family, 0)
    phi = code.encode(random_values(rng, gf16, 30))
    program = central_repair_program(fixture_family, 0, 1, [2, 3, 4, 5, 6, 7], NAIVE)
    (h, count) = program.plan.per_helper_sent[0]
    stored = code.node_content(phi, h).values
    sent = matvec(gf16, program.send_matrices[0], stored)
    assert len(sent) == count == 5


# sha256 of the repr of every repair program below, pinned from the
# builder that picked the sends and then eliminated them again for the
# recovery; one elimination per program must give them bit for bit
PINNED_PROGRAMS = {
    NAIVE: "3ebf765d873d7601031812c983cd11575b0fe0cc9667e8abc23bbbc094edd76b",
    CASCADE: "baba1b0cd9947691fe3571d21f63e7e82c51236e502b4bdb65217102ce408178",
    SUBSPACE: "8b4c258a99a37cdb5419f71589d1ddf625faf54e882008e8bfd4708fa886ebed",
    "single-depth-1": "2f8c5ce402e91b854db21b086f3a363a619c0cba0d8cd2d8c08a0bac21d82403",
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pair_repair_programs_pinned(fixture_family, strategy):
    # every pair of the fixture, helped by the first d other nodes
    code, digest = ShortenedCode(fixture_family, 0), hashlib.sha256()
    for f, g in combinations(range(9), 2):
        helpers = [h for h in range(9) if h not in (f, g)][:code.d]
        digest.update(repr(code.repair_program([f, g], helpers, strategy)).encode())
    assert digest.hexdigest() == PINNED_PROGRAMS[strategy]


def test_single_repair_programs_pinned(fixture_family):
    # every node of the depth-1 shortening, from each run of d helpers
    # around the ring of live nodes
    code, digest = shorten(fixture_family, 1), hashlib.sha256()
    for f in range(code.n):
        for start in range(code.n):
            ring = [h for h in list(range(start, code.n)) + list(range(start)) if h != f]
            digest.update(repr(code.repair_program([f], sorted(ring[:code.d]))).encode())
    assert digest.hexdigest() == PINNED_PROGRAMS["single-depth-1"]
