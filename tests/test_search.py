import hashlib
import json
import random

import pytest

from atrahasis.code import EXTERIOR, SYMMETRIC, derive_params, pattern_family, verify_axioms
from atrahasis.errors import UsageError
from atrahasis.fields import binary_field, prime_field
from atrahasis.linalg import det
from atrahasis.search import (INCONCLUSIVE, NONZERO_WITNESSED, SearchConfig,
                              WitnessCase, _draw_rows, enumerate_primitive_cases,
                              grow_pool, nullstellensatz_witness, render_report_table,
                              sweep_small_cases, witness_matrix)


def flagship_config():
    spec = binary_field(4)
    params = derive_params(7, 5, 6, SYMMETRIC)
    return SearchConfig(spec, params, (0, 2, 6), (0, 1, 3))


def test_grow_pool_reaches_nine_points():
    result = grow_pool(flagship_config())
    assert result.ok
    assert len(result.pool) >= 9
    assert result.family.params.n == len(result.pool)
    assert verify_axioms(result.family).ok


# Pools pinned from the one-subset-at-a-time checker; the t = 4 (9,7,8)
# pool from the prefix-reduced walk, checked by verify_axioms.
PINNED_POOLS = [
    (binary_field(4), (7, 5, 6, SYMMETRIC), (0, 2, 6), (0, 1, 3),
     (0, 1, 2, 4, 7, 8, 11, 13, 14)),
    (binary_field(6), (9, 5, 6, SYMMETRIC), (0, 2, 6), (0, 1, 3),
     (0, 1, 2, 4, 7, 8, 11, 13, 14, 23, 47)),
    (binary_field(8), (9, 5, 6, SYMMETRIC), (0, 2, 6), (0, 1, 3),
     (0, 1, 2, 4, 7, 8, 11, 13, 14, 17, 33, 70, 135, 248)),
    (binary_field(8), (9, 7, 8, SYMMETRIC), (0, 2, 6, 14), (0, 1, 3, 7),
     (0, 1, 2, 4, 8, 15, 16, 32, 64, 128)),
    (binary_field(5), (6, 3, 4, EXTERIOR), (0, 3), (0, 1, 2),
     (0, 1, 2, 3, 4, 5, 7, 10, 18)),
    (prime_field(31), (8, 5, 6, EXTERIOR), (0, 2, 6), (0, 1, 2, 3, 4),
     (0, 1, 2, 3, 4, 5, 9, 17)),
]


def _pin_ids(pins):
    # flavor and field; a later pin over the same ones adds its (k, d)
    ids = []
    for spec, (n, k, d, flavor), *_ in pins:
        name = f"{flavor}-gf{spec.order}"
        ids.append(f"{name}-k{k}d{d}" if name in ids else name)
    return ids


@pytest.mark.parametrize("spec,params,x_pattern,y_pattern,pool", PINNED_POOLS,
                         ids=_pin_ids(PINNED_POOLS))
def test_grow_pool_pinned_pools(spec, params, x_pattern, y_pattern, pool):
    result = grow_pool(SearchConfig(spec, derive_params(*params), x_pattern, y_pattern))
    assert result.ok and result.pool == pool
    assert result.family.params.n == len(pool)


SMALL_FIELD_POOLS = [pin for pin in PINNED_POOLS if pin[0].order <= 64]


@pytest.mark.parametrize("spec,params,x_pattern,y_pattern,pool", SMALL_FIELD_POOLS,
                         ids=_pin_ids(SMALL_FIELD_POOLS))
def test_grow_pool_admits_what_verify_axioms_passes(spec, params, x_pattern, y_pattern,
                                                    pool):
    # grow_pool walks only the subsets holding each candidate: a candidate
    # joins exactly when verify_axioms passes the pool below it plus it
    n, k, d, flavor = params
    candidates = 0
    for v in range(spec.order):
        below = [a for a in pool if a < v]
        if len(below) < d:
            continue
        family = pattern_family(spec, derive_params(len(below) + 1, k, d, flavor),
                                below + [v], x_pattern, y_pattern)
        assert verify_axioms(family).ok == (v in pool), v
        candidates += 1
    assert candidates > len(pool) - d


@pytest.mark.parametrize("n", [9, 12])
def test_grow_pool_stops_at_n_points(n):
    # admission is greedy in field order: the first n points of the pool
    spec, params, x_pattern, y_pattern, pool = PINNED_POOLS[2]
    result = grow_pool(SearchConfig(spec, derive_params(*params), x_pattern, y_pattern), n)
    assert result.ok and result.pool == pool[:n]
    assert result.family.params.n == n


def test_grow_pool_deterministic():
    a = grow_pool(flagship_config())
    b = grow_pool(flagship_config())
    assert a.pool == b.pool


def test_grow_pool_t2_lemma_patterns(gf16):
    # squaring is a bijection over GF(16): every point joins the pool
    params = derive_params(6, 3, 4, SYMMETRIC)
    result = grow_pool(SearchConfig(gf16, params, (0, 2), (0, 1)))
    assert result.ok and len(result.pool) == 16
    assert verify_axioms(result.family).ok


def test_grow_pool_t2_exterior(gf16):
    params = derive_params(6, 3, 4, EXTERIOR)
    result = grow_pool(SearchConfig(gf16, params, (0, 2), (0, 1, 2)))
    assert result.ok and len(result.pool) >= 6
    assert verify_axioms(result.family).ok


def test_grow_pool_too_small_field_reports_failure():
    spec = binary_field(1)
    params = derive_params(3, 2, 2, SYMMETRIC)
    result = grow_pool(SearchConfig(spec, params, (0, 1), (0,)))
    assert not result.ok
    assert result.family is None
    assert "pool" in result.reason


def test_search_config_validation(gf16):
    params = derive_params(7, 5, 6, SYMMETRIC)
    with pytest.raises(UsageError):
        SearchConfig(gf16, params, (0, 2), (0, 1, 3))  # x pattern too short
    with pytest.raises(UsageError):
        SearchConfig(gf16, params, (0, 2, -1), (0, 1, 3))


def test_witness_flagship_case(gf127):
    params = derive_params(7, 5, 6, SYMMETRIC)
    report = nullstellensatz_witness(params, gf127, seed=0, max_redraws=10)
    assert report.verdict == NONZERO_WITNESSED
    assert report.redraws < 3
    assert report.field_order_used == 127
    # the witness matrix is d*beta square: 6 * 3 = 18
    M = witness_matrix(gf127, 3,
                       [list(x) for x in report.x_points],
                       [list(y) for y in report.y_points])
    assert len(M) == 18 and all(len(row) == 18 for row in M)


def test_witness_soundness_replay(gf127):
    params = derive_params(7, 5, 6, SYMMETRIC)
    report = nullstellensatz_witness(params, gf127, seed=3)
    M = witness_matrix(gf127, 3,
                       [list(x) for x in report.x_points],
                       [list(y) for y in report.y_points])
    assert det(gf127, M) == report.determinant != 0


def test_witness_deterministic(gf127):
    params = derive_params(9, 5, 8, SYMMETRIC)  # t = 2, 8x8
    a = nullstellensatz_witness(params, gf127, seed=11)
    b = nullstellensatz_witness(params, gf127, seed=11)
    assert a == b


def test_witness_degenerate_two_by_two(gf127):
    params = derive_params(3, 2, 2, SYMMETRIC)  # d*beta = 2
    report = nullstellensatz_witness(params, gf127, seed=0)
    assert report.verdict == NONZERO_WITNESSED
    M = witness_matrix(gf127, 2,
                       [list(x) for x in report.x_points],
                       [list(y) for y in report.y_points])
    assert len(M) == 2 and all(len(row) == 2 for row in M)


def test_witness_tiny_field_can_be_inconclusive():
    # over GF(2) with one redraw the determinant often vanishes; the
    # verdict must then be inconclusive, never a false positive
    params = derive_params(7, 5, 6, SYMMETRIC)
    gf2 = prime_field(2)
    report = nullstellensatz_witness(params, gf2, seed=1, max_redraws=1)
    assert report.verdict in (NONZERO_WITNESSED, INCONCLUSIVE)
    if report.verdict == INCONCLUSIVE:
        assert report.redraws == 1 and report.x_points == ()


def test_enumerate_cases_cap_one_is_top_rate_only():
    cases = enumerate_primitive_cases(1)
    assert cases and all(c.t == c.k and c.alpha == 1 for c in cases)


def test_enumerate_cases_cap_ten():
    cases = enumerate_primitive_cases(10)
    assert WitnessCase(k=5, d=6, t=3, alpha=6) in cases
    assert all(c.alpha <= 10 for c in cases)
    assert all(c.d % (c.d - c.k + 1) == 0 for c in cases)
    # the boundary t = 2 case alpha = cap is present
    assert WitnessCase(k=11, d=20, t=2, alpha=10) in cases


def test_sweep_cap_ten_all_witnessed():
    reports = sweep_small_cases(10, seed=0)
    assert all(r.verdict == NONZERO_WITNESSED for r in reports)
    assert any(r.case == WitnessCase(k=5, d=6, t=3, alpha=6) for r in reports)


def test_report_table_format(tmp_path):
    reports = sweep_small_cases(2, seed=0)
    table = render_report_table(reports)
    lines = table.strip().split("\n")
    assert lines[0].split("\t") == ["k", "d", "t", "alpha", "field",
                                    "redraws", "verdict"]
    assert len(lines) == len(reports) + 1
    for line in lines[1:]:
        cols = line.split("\t")
        assert len(cols) == 7 and cols[6] == NONZERO_WITNESSED


@pytest.mark.parametrize("order", [2, 127, 128, 65521])
def test_witness_draws_are_the_randrange_stream(order):
    # the witness draws by getrandbits with rejection; a report replays
    # only if that is the stream randrange(order) gives, to the last draw
    seed = f"draws:{order}"
    rng, ref = random.Random(seed), random.Random(seed)
    for rows, width in ((7, 3), (1, 1), (4, 5)):
        assert _draw_rows(rng, order, rows, width) == [
            [ref.randrange(order) for _ in range(width)] for _ in range(rows)]
    assert rng.getstate() == ref.getstate()


def test_sweep_reports_pinned():
    # sha256 of the JSON of every witness report of the alpha <= 30 sweep
    # over GF(127) at seed 5: draws, redraw counts and determinants
    reports = sweep_small_cases(30, prime_field(127), seed=5)
    assert len(reports) == 64
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == \
        "2cd5b92d18e081ce93bd1f7dae945c800864a7c90bec2db84ac8f9d8d7d23ab9"
