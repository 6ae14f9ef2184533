from itertools import combinations

import pytest

import product_matrix as pm
from atrahasis.code import SYMMETRIC, EXTERIOR, rs_stars_t2
from atrahasis.errors import AxiomViolationError, UsageError
from atrahasis.fields import binary_field, prime_field
from atrahasis.linalg import rank_of_rows
from atrahasis.transforms import ShortenedCode
from conftest import random_values


def rs_ingredients(spec, n, k, flavor=SYMMETRIC):
    fam = rs_stars_t2(spec, n, k, flavor)
    xis = [x[1] for x in fam.x_stars]  # x = [1, xi]
    return fam, xis, fam.second_stars


def test_pack_symmetric_shape(gf16, rng):
    raw = random_values(rng, gf16, 12)  # k = 4: M = 12
    file = pm.pack_symmetric(gf16, 4, raw)
    assert len(file.s1) == 3 and file.s1 == pm.transpose(file.s1)
    assert pm.unpack_symmetric(file) == raw
    with pytest.raises(UsageError):
        pm.pack_symmetric(gf16, 4, raw[:-1])


def test_pm_node_examples(gf16, rng):
    raw = random_values(rng, gf16, 6)
    file = pm.pack_symmetric(gf16, 3, raw)
    y = random_values(rng, gf16, 2)
    zero_file = pm.pack_symmetric(gf16, 3, [0] * 6)
    assert not any(pm.pm_node(zero_file, 5, y))
    # with S2 = 0 the content does not depend on xi
    s2zero = pm.pack_symmetric(gf16, 3, raw[:3] + [0, 0, 0])
    assert pm.pm_node(s2zero, 4, y) == pm.pm_node(s2zero, 9, y)


def test_pm_matches_tensor_flavor():
    # the node-value identity under x = [1, xi] holds for any star choice
    import random
    from atrahasis.code import StarFamily, derive_params
    spec = prime_field(7)
    rng = random.Random(31)
    params = derive_params(5, 3, 4, SYMMETRIC)
    xis = [0, 1, 2, 3, 4]
    ys = [[1, rng.randrange(7)] for _ in range(5)]
    fam = StarFamily(spec, params, [[1, xi] for xi in xis], ys)
    code = ShortenedCode(fam, 0)
    raw = random_values(rng, spec, params.M)
    phi = code.encode(raw)
    file = pm.pack_symmetric(spec, 3, raw)
    for h in range(5):
        assert pm.pm_node(file, xis[h], ys[h]) == code.node_content(phi, h).values


def test_pm_download_gf7_handcrafted():
    # the decoupling download needs only distinct xi and spanning y for
    # the chosen nodes, so small GF(7) star choices work directly
    import random
    spec = prime_field(7)
    rng = random.Random(70)
    xis = [0, 1, 2]
    ys = [[1, 0], [0, 1], [1, 1]]
    raw = random_values(rng, spec, 6)
    file = pm.pack_symmetric(spec, 3, raw)
    vecs = [pm.pm_node(file, xis[h], ys[h]) for h in range(3)]
    rec = pm.pm_download(spec, vecs, xis, ys)
    assert pm.unpack_symmetric(rec) == raw


def test_pm_download_exhaustive():
    spec = prime_field(11)
    fam, xis, ys = rs_ingredients(spec, 5, 3)
    import random
    rng = random.Random(17)
    raw = random_values(rng, spec, 6)
    file = pm.pack_symmetric(spec, 3, raw)
    for K in combinations(range(5), 3):
        vecs = [pm.pm_node(file, xis[h], ys[h]) for h in K]
        rec = pm.pm_download(spec, vecs, [xis[h] for h in K], [ys[h] for h in K])
        assert pm.unpack_symmetric(rec) == raw
    zeros = [[0, 0]] * 3
    rec = pm.pm_download(spec, zeros, xis[:3], ys[:3])
    assert pm.unpack_symmetric(rec) == [0] * 6


def test_pm_download_repeated_xi_fails():
    spec = prime_field(11)
    fam, xis, ys = rs_ingredients(spec, 5, 3)
    file = pm.pack_symmetric(spec, 3, [1, 2, 3, 4, 5, 6])
    vecs = [pm.pm_node(file, xis[h], ys[h]) for h in (0, 1, 2)]
    with pytest.raises(AxiomViolationError):
        pm.pm_download(spec, vecs, [xis[0], xis[0], xis[2]], ys[:3])


def test_pm_help_and_repair_exhaustive():
    spec = prime_field(11)
    fam, xis, ys = rs_ingredients(spec, 5, 3)
    import random
    rng = random.Random(23)
    raw = random_values(rng, spec, 6)
    file = pm.pack_symmetric(spec, 3, raw)
    for f in range(5):
        others = [h for h in range(5) if h != f]
        for H in combinations(others, 4):
            msgs = [pm.pm_help(file, xis[h], ys[h], ys[f]) for h in H]
            assert all(not isinstance(m, list) for m in msgs)  # beta = 1 scalar
            got = pm.pm_repair(spec, msgs, [xis[h] for h in H], [ys[h] for h in H],
                               xis[f], ys[f])
            assert got == pm.pm_node(file, xis[f], ys[f])
    zero = pm.pack_symmetric(spec, 3, [0] * 6)
    msgs = [pm.pm_help(zero, xis[h], ys[h], ys[4]) for h in range(4)]
    assert all(m == 0 for m in msgs)


def test_skew_structure_validation(gf16):
    with pytest.raises(UsageError):
        pm.SkewFile(gf16, [[1, 0], [0, 0]], [[0, 0], [0, 0]])
    spec = prime_field(7)
    with pytest.raises(UsageError):
        pm.SkewFile(spec, [[0, 1], [1, 0]], [[0, 0], [0, 0]])
    pm.SkewFile(spec, [[0, 1], [6, 0]], [[0, 0], [0, 0]])


def test_skew_node_orthogonality(gf16, rng):
    fam, xis, ws = rs_ingredients(gf16, 6, 3, EXTERIOR)
    raw = random_values(rng, gf16, 6)
    file = pm.pack_skew(gf16, 3, raw)
    assert pm.unpack_skew(file) == raw
    for h in range(6):
        v = pm.skew_node(file, xis[h], ws[h])
        assert pm.dot(gf16, v, ws[h]) == 0
        stored = pm.skew_store(v, ws[h])
        assert len(stored) == 2  # k - 1 symbols suffice
        assert pm.skew_restore(gf16, stored, ws[h]) == v


@pytest.mark.parametrize("spec_maker,n", [(lambda: binary_field(4), 6),
                                          (lambda: prime_field(11), 5)])
def test_skew_download_and_repair_exhaustive(spec_maker, n, rng):
    spec = spec_maker()
    fam, xis, ws = rs_ingredients(spec, n, 3, EXTERIOR)
    raw = random_values(rng, spec, 6)
    file = pm.pack_skew(spec, 3, raw)
    for K in combinations(range(n), 3):
        vecs = [pm.skew_node(file, xis[h], ws[h]) for h in K]
        rec = pm.skew_download(spec, vecs, [xis[h] for h in K], [ws[h] for h in K])
        assert pm.unpack_skew(rec) == raw
    for f in range(n):
        others = [h for h in range(n) if h != f]
        for H in combinations(others, 4):
            msgs = [pm.skew_help(file, xis[h], ws[h], ws[f]) for h in H]
            got = pm.skew_repair(spec, msgs, [xis[h] for h in H], [ws[h] for h in H],
                                 xis[f], ws[f])
            assert got == pm.skew_node(file, xis[f], ws[f])


def test_bordered_vandermonde_nonsingular(gf16):
    # the 2k x 2k repair system of the skew construction: d helper rows
    # [w, xi*w] plus the two known-zero rows contributed by the failure
    fam, xis, ws = rs_ingredients(gf16, 6, 3, EXTERIOR)
    k = 3
    for f in range(6):
        others = [h for h in range(6) if h != f]
        for H in combinations(others, 4):
            rows = [ws[h] + [gf16.mul(xis[h], v) for v in ws[h]] for h in H]
            rows.append(ws[f] + [0] * k)
            rows.append([0] * k + ws[f])
            assert rank_of_rows(gf16, rows) == 2 * k
