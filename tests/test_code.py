import random
from functools import reduce
from itertools import combinations
from math import gcd

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from atrahasis.code import (EXTERIOR, SYMMETRIC, AxiomReport, CodeParams,
                            HelpMessage, NodeContent, StarFamily, axiom_rows,
                            derive_params, help_matrix, pattern_family, quotient_rows,
                            rs_certificate, rs_patterns, rs_stars_t2, verify_axioms)
from atrahasis.errors import (AxiomViolationError, FieldTooSmallError,
                              InfeasibleParametersError, UsageError)
from atrahasis.fields import binary_field, prime_field
from atrahasis.fixtures import atrahasis_956
from atrahasis.linalg import SpanSolver, rank_of_rows
from atrahasis.transforms import ShortenedCode, shorten
from conftest import random_values


def plus_scaled(spec, a, c, b):
    """The int vector a + c*b."""
    return [spec.add(x, spec.mul(c, y)) for x, y in zip(a, b)]


def random_file(rng, code):
    return code.encode(random_values(rng, code.spec, code.M))


def all_contents(code, file):
    return [code.node_content(file, h) for h in range(code.n)]


def test_derive_params_flagship():
    p = derive_params(9, 5, 6)
    assert (p.t, p.alpha, p.beta, p.M) == (3, 6, 3, 30)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_derive_params_t2_family(k):
    p = derive_params(2 * k, k, 2 * (k - 1))
    assert (p.t, p.alpha, p.beta, p.M) == (2, k - 1, 1, k * (k - 1))


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_derive_params_degenerate_top(k):
    p = derive_params(k + 1, k, k)
    assert (p.t, p.alpha, p.beta, p.M) == (k, 1, 1, k)


def test_derive_params_rejects_non_integral_t():
    with pytest.raises(InfeasibleParametersError):
        derive_params(6, 4, 5)  # t = 5/2
    with pytest.raises(InfeasibleParametersError):
        derive_params(5, 5, 5)  # n - 1 < d
    with pytest.raises(InfeasibleParametersError):
        derive_params(4, 1, 2)  # k < 2


def test_params_invariants_enforced():
    good = derive_params(9, 5, 6)
    with pytest.raises(InfeasibleParametersError):
        CodeParams(n=9, k=5, d=6, t=3, alpha=7, beta=3, M=30, flavor=SYMMETRIC)
    with pytest.raises(InfeasibleParametersError):
        CodeParams(n=9, k=5, d=6, t=3, alpha=6, beta=2, M=30, flavor=SYMMETRIC)
    with pytest.raises(InfeasibleParametersError):
        CodeParams(n=9, k=5, d=6, t=3, alpha=6, beta=3, M=31, flavor=SYMMETRIC)
    with pytest.raises(UsageError):
        CodeParams(n=9, k=5, d=6, t=3, alpha=6, beta=3, M=30, flavor="other")
    assert good.y_dim == 3


def test_verify_axioms_fixture(fixture_family):
    report = verify_axioms(fixture_family)
    assert report.ok
    assert report.subsets_checked == 84 + 84 + 84


def test_verify_axioms_rs_t2(gf16):
    # squaring is a bijection in characteristic 2, so 6 points exist
    assert verify_axioms(rs_stars_t2(gf16, 6, 3, SYMMETRIC)).ok
    assert verify_axioms(rs_stars_t2(gf16, 6, 3, EXTERIOR)).ok


def test_verify_axioms_duplicate_stars(gf16):
    fam = rs_stars_t2(gf16, 6, 3, SYMMETRIC)
    broken = StarFamily(gf16, fam.params,
                        [fam.x_stars[0]] + fam.x_stars[1:5] + [fam.x_stars[0]],
                        fam.second_stars)
    report = verify_axioms(broken)
    assert not report.ok
    assert report.axiom == "MDSx"
    assert set(report.subset) == {0, 5}
    assert report == AxiomReport(False, "MDSx", (0, 5), None, 5)


# Broken pattern families with their full reports, pinned from the
# one-subset-at-a-time checker: the failing subset is the first in
# combinations order, and subsets_checked counts every subset up to and
# including it (MDSq: over all earlier failed nodes too).
PINNED_REPORTS = [
    ((SYMMETRIC, prime_field(11), (7, 3, 4), (0, 3), (0, 2),
      (1, 5, 6, 7, 8, 9, 10)),
     AxiomReport(False, "MDSy", (0, 6), None, 27)),
    ((EXTERIOR, binary_field(4), (7, 3, 4), (0, 1), (0, 2, 5),
      (1, 5, 6, 9, 10, 11, 12)),
     AxiomReport(False, "MDSw", (0, 4, 6), None, 35)),
    ((SYMMETRIC, binary_field(5), (9, 5, 6), (0, 2, 6), (0, 1, 3),
      (0, 6, 12, 13, 21, 23, 28, 30, 31)),
     AxiomReport(False, "MDSd", (1, 2, 5, 6, 7, 8), None, 239)),
    ((SYMMETRIC, binary_field(6), (9, 5, 6), (0, 2, 6), (0, 1, 3),
      (1, 7, 12, 14, 16, 18, 27, 37, 47)),
     AxiomReport(False, "MDSd", (0, 1, 3, 5, 7, 8), None, 197)),
    ((EXTERIOR, prime_field(11), (7, 3, 4), (0, 3), (0, 1, 2),
      (1, 2, 3, 4, 5, 7, 10)),
     AxiomReport(False, "MDSq", (0, 2, 3, 6), 1, 74)),
    ((EXTERIOR, binary_field(5), (8, 5, 6), (0, 2, 6), (0, 1, 2, 3, 4),
      (1, 9, 12, 14, 17, 22, 25, 30)),
     AxiomReport(False, "MDSq", (0, 2, 3, 4, 6, 7), 1, 122)),
]


@pytest.mark.parametrize("case,want", PINNED_REPORTS,
                         ids=[r.axiom + str(r.subsets_checked) for _, r in PINNED_REPORTS])
def test_verify_axioms_pinned_reports(case, want):
    flavor, spec, nkd, x_pattern, y_pattern, points = case
    family = pattern_family(spec, derive_params(*nkd, flavor), points,
                            x_pattern, y_pattern)
    assert verify_axioms(family) == want


def test_verify_axioms_pinned_passes(gf16, fixture_family):
    assert verify_axioms(fixture_family) == AxiomReport(True, subsets_checked=252)
    assert verify_axioms(rs_stars_t2(gf16, 6, 3, EXTERIOR)) == AxiomReport(
        True, subsets_checked=65)
    assert verify_axioms(rs_stars_t2(binary_field(8), 12, 5, EXTERIOR)) == AxiomReport(
        True, subsets_checked=2838)


def brute_force_report(stars):
    """verify_axioms one subset at a time: each axiom's subsets in
    combinations order, ranked from scratch."""
    p, spec = stars.params, stars.spec
    checked, nodes = 0, range(p.n)
    second = "MDSy" if p.flavor == SYMMETRIC else "MDSw"
    blocks = [axiom_rows(spec, p.flavor, p.t, x, s)
              for x, s in zip(stars.x_stars, stars.second_stars)]
    full = len(blocks[0][0])
    checks = [("MDSx", None, p.t, p.t, lambda S: [stars.x_stars[h] for h in S]),
              (second, None, p.y_dim, p.y_dim, lambda S: [stars.second_stars[h] for h in S])]
    if p.flavor == SYMMETRIC:
        checks.append(("MDSd", None, p.d, full,
                       lambda S: [row for h in S for row in blocks[h]]))
    else:
        checks += [("MDSq", f, p.d, full,
                    lambda S, f=f: quotient_rows(spec, p.flavor, p.t, stars.second_stars[f])
                    + [row for h in S for row in blocks[h]])
                   for f in nodes]
    for axiom, f, size, target, rows in checks:
        for S in combinations([h for h in nodes if h != f], size):
            checked += 1
            if rank_of_rows(spec, rows(S)) < target:
                return AxiomReport(False, axiom, S, f, checked)
    return AxiomReport(True, subsets_checked=checked)


MUTATED_FAMILIES = {"fixture": atrahasis_956,
                    "rs-12-5-8-exterior": lambda: rs_stars_t2(binary_field(8), 12, 5, EXTERIOR)}


@pytest.mark.parametrize("name", sorted(MUTATED_FAMILIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_verify_axioms_single_value_mutations_match_brute_force(name, data):
    # verify_axioms walks the MDSd and MDSq passes of these two families
    # on the dual side; a mutation must still be reported at the first
    # subset a one-by-one check meets
    family = MUTATED_FAMILIES[name]()
    stars = [[list(v) for v in family.x_stars], [list(v) for v in family.second_stars]]
    which = data.draw(st.integers(0, 1))
    h = data.draw(st.integers(0, family.params.n - 1))
    i = data.draw(st.integers(0, len(stars[which][h]) - 1))
    # another node's entry at the same place breaks some subset often
    column = [v[i] for v in stars[which]]
    stars[which][h][i] = data.draw(st.sampled_from(column)
                                   | st.integers(0, family.spec.order - 1))
    try:
        mutant = StarFamily(family.spec, family.params, *stars)
    except UsageError:  # an all-zero w star
        return
    report = verify_axioms(mutant)
    event(report.axiom or "pass")
    assert report == brute_force_report(mutant)


# a^3 is not injective on GF(16), GF(256) or GF(4096), nor a^(k-1) for
# k = 3..5 on GF(13)
CERTIFIED_FIELDS = [binary_field(4), binary_field(8), binary_field(12), prime_field(13)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rs_certificate_proves_only_what_the_walk_passes(data):
    spec = data.draw(st.sampled_from(CERTIFIED_FIELDS), label="field")
    k = data.draw(st.integers(2, 5), label="k")
    flavor = data.draw(st.sampled_from([SYMMETRIC, EXTERIOR]), label="flavor")
    n = data.draw(st.integers(2 * k - 1, 2 * k + 2), label="n")
    points = data.draw(st.lists(st.integers(0, spec.order - 1), min_size=n, max_size=n,
                                unique=True), label="points")
    if data.draw(st.booleans(), label="collide"):
        # z * a has the (k-1)-th power of a when z^(k-1) = 1
        root = spec.pow(data.draw(st.integers(1, spec.order - 1)),
                        (spec.order - 1) // gcd(k - 1, spec.order - 1))
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                  unique=True))
        points[i] = spec.mul(root, points[j])
    family = pattern_family(spec, derive_params(n, k, 2 * (k - 1), flavor), points,
                            *rs_patterns(k, flavor))
    mutated = data.draw(st.booleans(), label="mutated")
    if mutated:
        # one star entry replaced: the family may no longer be a pattern family
        stars = [[list(v) for v in family.x_stars], [list(v) for v in family.second_stars]]
        which = data.draw(st.integers(0, 1))
        h = data.draw(st.integers(0, n - 1))
        i = data.draw(st.integers(0, len(stars[which][h]) - 1))
        stars[which][h][i] = data.draw(st.integers(0, spec.order - 1))
        try:
            family = StarFamily(spec, family.params, *stars)
        except UsageError:  # an all-zero w star
            return
    proved, ok = rs_certificate(family), verify_axioms(family).ok
    event("proved" if proved else "walk passes" if ok else "walk fails")
    assert ok or not proved
    # on a pattern family the hypotheses are exact: a shared (k-1)-th
    # power makes two x stars equal, which fails MDSx
    assert mutated or proved == ok


def test_rs_certificate_proves_every_rs_family():
    proved = 0
    for spec in CERTIFIED_FIELDS[:3]:
        for flavor in (SYMMETRIC, EXTERIOR):
            for k in range(2, 6):
                for n in range(2 * k - 1, 17):
                    if spec.order == 16 and k == 4:
                        # GF(16) has 6 distinct cubes, and n >= 2k-1 = 7
                        with pytest.raises(FieldTooSmallError):
                            rs_stars_t2(spec, n, k, flavor)
                        continue
                    assert rs_certificate(rs_stars_t2(spec, n, k, flavor))
                    proved += 1
    assert proved == 2 * (3 * (14 + 12 + 10 + 8) - 10)


def test_rs_certificate_declines_other_families(fixture_family, gf16):
    assert not rs_certificate(fixture_family)  # t = 3
    # t = 3 with a one-entry y star, which has no point to read
    assert not rs_certificate(pattern_family(gf16, derive_params(4, 3, 3), [1, 2, 3, 4],
                                             (0, 1, 2), (0,)))
    fam = rs_stars_t2(gf16, 6, 3, SYMMETRIC)
    points = [s[1] for s in fam.second_stars]
    # the stars of rs_patterns, but for a different exponent of x
    assert not rs_certificate(pattern_family(gf16, fam.params, points, (0, 3), (0, 1)))
    assert rs_certificate(pattern_family(gf16, fam.params, points, (0, 2), (0, 1)))


def test_encode_identity_and_linearity(gf16, fixture_family, rng):
    code = ShortenedCode(fixture_family, 0)
    raw = random_values(rng, gf16, code.M)
    assert code.encode(raw) == raw
    assert not any(code.encode([0] * code.M))
    other = random_values(rng, gf16, code.M)
    summed = [gf16.add(a, b) for a, b in zip(raw, other)]
    lhs = code.encode(summed)
    rhs = plus_scaled(gf16, code.encode(raw), 1, code.encode(other))
    assert lhs == rhs
    with pytest.raises(UsageError):
        code.encode(raw[:-1])


def test_node_content_values(gf16, fixture_family, rng):
    code = ShortenedCode(fixture_family, 0)
    zero = code.encode([0] * code.M)
    assert not any(code.node_content(zero, 0).values)
    unit = code.encode([1] + [0] * (code.M - 1))
    nc = code.node_content(unit, 2)
    assert len(nc.values) == 6
    expected = [row[0] for row in fixture_family.node_tensor_rows(2)]
    assert nc.values == expected
    phi = random_file(rng, code)
    nc = code.node_content(phi, 5)
    rows = fixture_family.node_tensor_rows(5)
    assert nc.values == [reduce(gf16.add, map(gf16.mul, r, phi), 0) for r in rows]
    with pytest.raises(UsageError):
        code.node_content(phi, 9)


def test_download_exhaustive_small(gf16, rng):
    code = ShortenedCode(rs_stars_t2(gf16, 6, 3, SYMMETRIC), 0)
    for _ in range(3):
        phi = random_file(rng, code)
        contents = all_contents(code, phi)
        for K in combinations(range(6), 3):
            assert code.download([contents[h] for h in K]) == phi
    zc = all_contents(code, code.encode([0] * code.M))
    assert not any(code.download(zc[:3]))
    with pytest.raises(UsageError):
        code.download(zc[:2])  # k-1 contents underdetermine the file
    with pytest.raises(UsageError):
        code.download([zc[0], zc[0], zc[1]])


def test_help_and_repair_roundtrip(gf16, fixture_family, rng):
    code = ShortenedCode(fixture_family, 0)
    phi = random_file(rng, code)
    contents = all_contents(code, phi)
    f = 3
    helpers = [0, 1, 2, 4, 5, 8]
    msgs = [code.help_message(contents[h], f) for h in helpers]
    assert all(len(m.values) == 3 for m in msgs)
    rebuilt = code.repair(msgs)
    assert rebuilt.node_index == f
    assert rebuilt.values == contents[f].values
    with pytest.raises(UsageError):
        code.repair(msgs[:-1])
    with pytest.raises(UsageError):
        code.help_message(contents[f], f)


def test_zero_file_messages(gf16, fixture_family):
    code = ShortenedCode(fixture_family, 0)
    zero = code.encode([0] * code.M)
    msg = code.help_message(code.node_content(zero, 0), 4)
    assert not any(msg.values)
    msgs = [code.help_message(code.node_content(zero, h), 0) for h in (1, 2, 3, 4, 5, 6)]
    assert not any(code.repair(msgs).values)


def test_message_containment_all_pairs(gf16, fixture_family):
    # every help-message tensor lies in the helper's node subspace
    for h in range(9):
        for f in range(9):
            if h != f:
                help_matrix(fixture_family, h, f)  # raises if containment fails


def test_short_helper_sets_are_span_deficient(gf16, fixture_family):
    fam = fixture_family
    generators = []
    for h in (0, 1, 2, 4, 5):  # d - 1 = 5 helpers only
        generators.extend(fam.message_tensor_rows(h, 3))
    solver = SpanSolver(gf16, generators, fam.params.M)
    targets = fam.node_tensor_rows(3)
    assert any(solver.coefficients_for(t) is None for t in targets)


def test_linearity_of_pipeline(gf16, fixture_family, rng):
    code = ShortenedCode(fixture_family, 0)
    a = random_file(rng, code)
    b = random_file(rng, code)
    c = rng.randrange(1, 16)
    summed = code.encode(plus_scaled(gf16, a, c, b))
    for h in range(4):
        lhs = code.node_content(summed, h).values
        rhs = plus_scaled(gf16, code.node_content(a, h).values, c,
                          code.node_content(b, h).values)
        assert lhs == rhs
    def message(phi):
        return code.help_message(code.node_content(phi, 1), 0).values
    assert message(summed) == plus_scaled(gf16, message(a), c, message(b))
    K = (0, 2, 4, 6, 8)
    def download(phi):
        return code.download([code.node_content(phi, h) for h in K])
    assert download(summed) == plus_scaled(gf16, download(a), c, download(b))
    H = (1, 2, 3, 4, 5, 6)
    def rebuild(phi):
        msgs = [code.help_message(code.node_content(phi, h), 0) for h in H]
        return code.repair(msgs).values
    assert rebuild(summed) == plus_scaled(gf16, rebuild(a), c, rebuild(b))


def test_rs_stars_field_too_small():
    gf7 = prime_field(7)
    # squares mod 7 are {0, 1, 2, 4}: only four distinct values, so a
    # six-node code cannot pick its points there
    assert len({gf7.pow(a, 2) for a in range(7)}) == 4
    with pytest.raises(FieldTooSmallError):
        rs_stars_t2(gf7, 6, 3, SYMMETRIC)
    # GF(11) has six distinct squares: exactly enough for n = 6
    gf11 = prime_field(11)
    fam = rs_stars_t2(gf11, 6, 3, SYMMETRIC)
    assert len({x[1] for x in fam.x_stars}) == 6
    assert verify_axioms(fam).ok
    with pytest.raises(FieldTooSmallError):
        rs_stars_t2(gf11, 7, 3, SYMMETRIC)


def test_rs_stars_frobenius_all_points(gf16):
    fam = rs_stars_t2(gf16, 6, 3, SYMMETRIC)
    assert verify_axioms(fam).ok
    # squaring is a bijection in characteristic 2: GF(8) already has
    # eight distinct squares, enough for six nodes
    gf8 = binary_field(3)
    fam8 = rs_stars_t2(gf8, 6, 3, SYMMETRIC)
    assert len({x[1] for x in fam8.x_stars}) == 6
    assert verify_axioms(fam8).ok
    # k = 2 needs n >= d + 1 = 3; two nodes alone cannot run a repair
    with pytest.raises(InfeasibleParametersError):
        rs_stars_t2(binary_field(2), 2, 2, SYMMETRIC)
    fam22 = rs_stars_t2(binary_field(2), 3, 2, SYMMETRIC)
    assert verify_axioms(fam22).ok


def test_exterior_t3_roundtrip():
    # a (7,5,6,6) exterior instance over GF(17); the star draw is pinned
    spec = prime_field(17)
    params = derive_params(7, 5, 6, EXTERIOR)
    r = random.Random(2)
    xs = [[r.randrange(17) for _ in range(3)] for _ in range(7)]
    ws = [[r.randrange(17) for _ in range(5)] for _ in range(7)]
    fam = StarFamily(spec, params, xs, ws)
    assert verify_axioms(fam).ok
    code = ShortenedCode(fam, 0)
    rng = random.Random(5)
    phi = random_file(rng, code)
    contents = all_contents(code, phi)
    for K in combinations(range(7), 5):
        assert code.download([contents[h] for h in K]) == phi
    for f in range(7):
        helpers = [h for h in range(7) if h != f]
        msgs = [code.help_message(contents[h], f) for h in helpers]
        assert all(len(m.values) == 3 for m in msgs)
        assert code.repair(msgs).values == contents[f].values


def test_t3_stretch_gf32_roundtrip():
    # stretch instance: (10,7,9,15) over GF(32) from the greedy pattern
    # search (alpha = 15, beta = 5, M = 105)
    from atrahasis.search import SearchConfig, grow_pool
    spec = binary_field(5)
    params = derive_params(10, 7, 9, SYMMETRIC)
    result = grow_pool(SearchConfig(spec, params, (0, 3, 9), (0, 1, 2, 3, 4)))
    assert result.ok and len(result.pool) == 10
    fam = result.family
    assert (fam.params.t, fam.params.alpha, fam.params.beta, fam.params.M) == \
        (3, 15, 5, 105)
    code = ShortenedCode(fam, 0)
    rng = random.Random(32)
    phi = random_file(rng, code)
    contents = all_contents(code, phi)
    assert code.download([contents[h] for h in (0, 1, 3, 5, 6, 8, 9)]) == phi
    f = 7
    helpers = [0, 1, 2, 3, 4, 5, 6, 8, 9]
    msgs = [code.help_message(contents[h], f) for h in helpers]
    assert all(len(m.values) == 5 for m in msgs)
    assert code.repair(msgs).values == contents[f].values


def test_t4_symmetric_roundtrip():
    # a (9,7,8,20) instance over GF(64), found by the greedy pattern
    # search; spot-check one download and one repair at alpha = 20
    from atrahasis.search import SearchConfig, grow_pool
    spec = binary_field(6)
    params = derive_params(9, 7, 8, SYMMETRIC)
    result = grow_pool(SearchConfig(spec, params, (0, 3, 9, 21), (0, 1, 3, 7)))
    assert result.ok and result.pool == (0, 1, 2, 4, 8, 15, 16, 32, 60)
    fam = result.family
    assert (fam.params.t, fam.params.alpha, fam.params.beta, fam.params.M) == \
        (4, 20, 10, 140)
    code = ShortenedCode(fam, 0)
    rng = random.Random(44)
    phi = random_file(rng, code)
    contents = all_contents(code, phi)
    assert code.download([contents[h] for h in (0, 2, 3, 5, 6, 7, 8)]) == phi
    f = 4
    helpers = [0, 1, 2, 3, 5, 6, 7, 8]
    msgs = [code.help_message(contents[h], f) for h in helpers]
    assert all(len(m.values) == 10 for m in msgs)
    assert code.repair(msgs).values == contents[f].values


def test_degenerate_top_rate_over_gf2():
    # (4, 3, 3) with t = k = 3 over GF(2): unit x vectors plus all-ones
    spec = binary_field(1)
    params = derive_params(4, 3, 3, SYMMETRIC)
    xs = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    ys = [[1]] * 4
    fam = StarFamily(spec, params, xs, ys)
    assert verify_axioms(fam).ok
    code = ShortenedCode(fam, 0)
    rng = random.Random(9)
    phi = random_file(rng, code)
    contents = all_contents(code, phi)
    for K in combinations(range(4), 3):
        assert code.download([contents[h] for h in K]) == phi
    for f in range(4):
        helpers = [h for h in range(4) if h != f]
        msgs = [code.help_message(contents[h], f) for h in helpers]
        assert code.repair(msgs).values == contents[f].values


def test_download_singular_names_subset(gf16, rng):
    fam = rs_stars_t2(gf16, 6, 3, SYMMETRIC)
    broken = StarFamily(gf16, fam.params,
                        [fam.x_stars[0], fam.x_stars[0]] + fam.x_stars[2:],
                        [fam.second_stars[0], fam.second_stars[0]]
                        + fam.second_stars[2:])
    code = ShortenedCode(broken, 0)
    phi = code.encode(random_values(rng, gf16, 6))
    contents = [code.node_content(phi, h) for h in (0, 1, 2)]
    with pytest.raises(AxiomViolationError) as exc:
        code.download(contents)
    assert exc.value.subset == (0, 1, 2)


def test_repair_span_deficient_names_pair(gf16, rng):
    fam = rs_stars_t2(gf16, 6, 3, SYMMETRIC)
    broken = StarFamily(gf16, fam.params,
                        [fam.x_stars[0], fam.x_stars[0]] + fam.x_stars[2:],
                        [fam.second_stars[0], fam.second_stars[0]]
                        + fam.second_stars[2:])
    code = ShortenedCode(broken, 0)
    phi = code.encode(random_values(rng, gf16, 6))
    msgs = [code.help_message(code.node_content(phi, h), 5) for h in (0, 1, 2, 3)]
    with pytest.raises(AxiomViolationError) as exc:
        code.repair(msgs)
    assert exc.value.failed_node == 5
    assert exc.value.subset == (0, 1, 2, 3)


def test_star_family_validation(gf16):
    params = derive_params(6, 3, 4, EXTERIOR)
    xs = [[1, v] for v in range(6)]
    ws = [[1, v, v] for v in range(6)]
    StarFamily(gf16, params, xs, ws)
    with pytest.raises(UsageError):
        StarFamily(gf16, params, xs[:5], ws)
    with pytest.raises(UsageError):
        StarFamily(gf16, params, xs, ws[:5] + [[0, 0, 0]])
    with pytest.raises(UsageError):
        StarFamily(gf16, params, [[1, 2, 3]] * 6, ws)


def test_star_family_rejects_non_canonical_entries(gf16):
    params = derive_params(6, 3, 4, EXTERIOR)
    xs = [[1, v] for v in range(6)]
    ws = [[1, v, v] for v in range(6)]
    with pytest.raises(UsageError, match="not a canonical element"):
        StarFamily(gf16, params, xs[:5] + [[1, 16]], ws)
    with pytest.raises(UsageError, match="not a canonical element"):
        StarFamily(gf16, params, xs, ws[:5] + [[1, -1, 0]])


def test_encode_rejects_non_canonical_symbols(gf16, fixture_family, rng):
    code = ShortenedCode(fixture_family, 0)
    raw = random_values(rng, gf16, code.M)
    for bad in (16, -1, 2.0):
        with pytest.raises(UsageError, match="not a canonical element"):
            code.encode(raw[:-1] + [bad])


# a t = 3 family over GF(16) and t = 2 families over GF(2^12) and GF(127)
VALUE_FAMILIES = {
    "gf16": atrahasis_956,
    "gf4096": lambda: rs_stars_t2(binary_field(12), 6, 3, SYMMETRIC),
    "gf127": lambda: rs_stars_t2(prime_field(127), 6, 3, SYMMETRIC),
}


@pytest.mark.parametrize("name", VALUE_FAMILIES)
def test_scalar_api_rejects_non_canonical_values(name):
    # the family as a code of depth 0, then its shortening by one
    fam = VALUE_FAMILIES[name]()
    for code in (ShortenedCode(fam, 0), shorten(fam, 1)):
        a, b = code.alpha, code.beta
        calls = (
            lambda bad: code.download([NodeContent(h, [bad] * a) for h in range(code.k)]),
            lambda bad: code.help_message(NodeContent(0, [bad] * a), code.d),
            lambda bad: code.repair([HelpMessage(h, 0, [bad] * b)
                                     for h in range(1, code.d + 1)]),
        )
        for bad in (fam.spec.order, -1):
            for call in calls:
                with pytest.raises(UsageError, match="not a canonical element"):
                    call(bad)
