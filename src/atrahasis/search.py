"""Finding and certifying star families.

Two routes:

* grow_pool -- deterministic greedy brute force.  Candidate evaluation
  points are scanned in canonical field order; a point joins the pool
  iff every condition of code.spanning_conditions still holds on the
  subsets holding it.  Each is one linalg.first_deficient_subset walk:
  the candidate's rows join the base, the pool points' rows are the
  blocks, and the walk keeps the blocks not yet chosen reduced modulo
  each prefix's span.  The blocks go newest-first, since a rejected
  candidate's deficient subset almost always holds the latest admitted
  points, so a rejection ends sooner.
  The walk is exhaustive and only whether some subset is deficient is
  used, so the order changes no verdict and no pool.  The exhaustive
  check is the certification path for concrete families.
  Given n, the growth stops at n points, the first n of the whole pool.

* nullstellensatz_witness -- randomized polynomial identity testing for
  the repair-span determinant.  Random star vectors over a small prime
  field are expanded into the d*beta square matrix; one nonzero
  determinant evaluation witnesses that the determinant polynomial is
  nonzero over the integers, hence star vectors exist over sufficiently
  large fields (Schwartz, "Fast probabilistic algorithms for
  verification of polynomial identities", JACM 1980).  A witness does
  NOT certify any specific family over a specific field; grow_pool (or
  verify_axioms) does that.  The draws are the stream of
  random.Random(seed).randrange(order), taken directly from getrandbits,
  so a report replays bit for bit.
"""

from __future__ import annotations

import random
from collections import namedtuple
from math import comb

from .code import (EXTERIOR, SYMMETRIC, CodeParams, StarFamily, axiom_rows, derive_params,
                   pattern_stars, quotient_rows, spanning_conditions)
from .errors import UsageError
from .fields import FieldSpec, prime_field
from .linalg import det, first_deficient_subset

NONZERO_WITNESSED = "nonzero-witnessed"
INCONCLUSIVE = "inconclusive"


class SearchConfig(namedtuple("SearchConfig", "spec params x_pattern y_pattern")):
    """Inputs of a deterministic pool search: a FieldSpec, CodeParams and
    two exponent patterns, each kept as a tuple.

    x_pattern / y_pattern are exponent lists: point a becomes
    x = [a^e for e in x_pattern] (with 0^0 = 1) and likewise for the
    second star vector.  Pattern lengths must be t and the second-space
    dimension (k-t+1 symmetric, k exterior).
    """

    __slots__ = ()

    def __new__(cls, spec: FieldSpec, params: CodeParams, x_pattern, y_pattern):
        x_pattern, y_pattern = tuple(x_pattern), tuple(y_pattern)
        if len(x_pattern) != params.t or len(y_pattern) != params.y_dim:
            raise UsageError(f"patterns must have lengths {params.t} and {params.y_dim}")
        if any(e < 0 for e in x_pattern + y_pattern):
            raise UsageError("pattern exponents must be non-negative")
        return super().__new__(cls, spec, params, x_pattern, y_pattern)


class PoolResult(namedtuple("PoolResult", "ok pool family reason", defaults=("",))):
    """Outcome of grow_pool: the pool found (a tuple), and a StarFamily
    when viable, else None with the reason.

    ok means the pool supports at least one valid code (pool >= d+1,
    since a code needs n-1 >= d).  The family spans the whole pool; any
    subfamily inherits the axioms, which quantify over all subsets.
    """

    __slots__ = ()


def grow_pool(cfg: SearchConfig, n: int | None = None) -> PoolResult:
    """Greedy brute-force pool growth over the whole field, or until n
    points are admitted.

    Incremental checking: only subsets touching the candidate point are
    re-verified, which is equivalent to full re-verification because
    previously accepted subsets are untouched by a new point.  Each
    candidate's axiom (and exterior quotient) rows are built once.
    Each check walks the pool newest-first, where a failing subset is
    met soonest; the verdict is the same in any order, so the pool is.
    Admission is greedy in field order, so the pool stopped at n points
    is the first n points of the whole field's pool.
    """
    spec = cfg.spec
    p = cfg.params
    pool: list[int] = []
    xs: list[list[int]] = []
    ss: list[list[int]] = []
    blocks: list[list] = []
    quotients: list[list] = []
    for v in range(spec.order):
        x, s = pattern_stars(spec, v, cfg.x_pattern, cfg.y_pattern)
        if p.flavor == EXTERIOR and not any(s):
            continue
        rows = _admitted_rows(spec, p, xs, ss, blocks, quotients, x, s)
        if rows is not None:
            pool.append(v)
            xs.append(x)
            ss.append(s)
            blocks.append(rows[0])
            quotients.append(rows[1])
            if len(pool) == n:
                break
    if len(pool) < p.d + 1:
        return PoolResult(False, tuple(pool), None,
                          f"pool of {len(pool)} points cannot support d={p.d}")
    params = derive_params(len(pool), p.k, p.d, p.flavor)
    family = StarFamily(spec, params, xs, ss)
    return PoolResult(True, tuple(pool), family)


def _admitted_rows(spec, p, xs, ss, blocks, quotients, x_new, s_new):
    """The new point's (axiom rows, quotient rows) if all spanning
    conditions still hold once (x_new, s_new) joins; None if one fails.

    The new point v is node 0 of spanning_conditions and the pool
    follows newest first.  v's block joins each condition's base, and
    the walk picks one node fewer around it; where v is the failed
    node, its quotient rows are the base and every pool block is walked.
    """
    new_rows = axiom_rows(spec, p.flavor, p.t, x_new, s_new)
    new_quotient = quotient_rows(spec, p.flavor, p.t, s_new) if p.flavor == EXTERIOR else None
    for _, f, by_node, size, target, base in spanning_conditions(
            p, [x_new] + xs[::-1], [s_new] + ss[::-1], [new_rows] + blocks[::-1],
            [new_quotient] + quotients[::-1]):
        if f != 0:
            base, size = by_node[0] + list(base), size - 1
        if first_deficient_subset(spec, [block for h, block in enumerate(by_node)
                                         if h and h != f], size, target, base) is not None:
            return None
    return new_rows, new_quotient


WitnessCase = namedtuple("WitnessCase", "k d t alpha")


class WitnessReport(namedtuple("WitnessReport", "case field_order_used redraws verdict "
                               "x_points y_points determinant", defaults=((), (), 0))):
    """One randomized determinant run and its verdict.

    A nonzero-witnessed verdict records the evaluation point (the drawn
    star vectors) and the determinant value, so the run can be replayed.
    """

    __slots__ = ()


def witness_matrix(spec: FieldSpec, t: int, xs: list[list[int]],
                   ys: list[list[int]]) -> list[list[int]]:
    """Stack the d*beta expanded tensors of the d star pairs (xs, ys)
    into the square witness matrix."""
    rows = []
    for x, y in zip(xs, ys):
        rows.extend(axiom_rows(spec, SYMMETRIC, t, x, y))
    return rows


def _draw_rows(rng: random.Random, order: int, rows: int, width: int) -> list[list[int]]:
    """rows x width uniform draws from range(order), row by row: each is
    getrandbits of order's bit length, redrawn while it is >= order.  That
    is how Random.randrange(order) draws, so the values are the ones that
    many randrange(order) calls give, in the same order."""
    bits, getrandbits, flat = order.bit_length(), rng.getrandbits, []
    while len(flat) < rows * width:
        r = getrandbits(bits)
        if r < order:
            flat.append(r)
    return [flat[i:i + width] for i in range(0, rows * width, width)]


def nullstellensatz_witness(params: CodeParams, witness_field: FieldSpec,
                            seed=0, max_redraws: int = 10) -> WitnessReport:
    """Randomized nonzero test of the repair-span determinant.

    Draws d random x and y star vectors uniformly over the witness
    field, evaluates the d*beta by d*beta determinant, and redraws on
    zero.  One nonzero evaluation proves the determinant polynomial is
    nonzero over the integers.
    """
    k, d, t = params.k, params.d, params.t
    case = WitnessCase(k=k, d=d, t=t, alpha=params.alpha)
    rng = random.Random(seed)
    order = witness_field.order
    for redraw in range(max_redraws):
        xs = _draw_rows(rng, order, d, t)
        ys = _draw_rows(rng, order, d, k - t + 1)
        value = det(witness_field, witness_matrix(witness_field, t, xs, ys))
        if value != 0:
            return WitnessReport(case, order, redraw, NONZERO_WITNESSED,
                                 tuple(map(tuple, xs)), tuple(map(tuple, ys)), value)
    return WitnessReport(case, order, max_redraws, INCONCLUSIVE)


def enumerate_primitive_cases(alpha_cap: int) -> list[WitnessCase]:
    """All (k, d, t) with integral t and alpha <= alpha_cap.

    r = d-k+1 must divide k-1, so for each k the cases are indexed by
    the divisors of k-1.  k is scanned up to alpha_cap + 2, which covers
    the boundary t = 2 case alpha = k-1 = cap and keeps the alpha = 1
    (t = k) family finite.
    """
    cases = []
    for k in range(2, alpha_cap + 3):
        for r in range(1, k):
            if (k - 1) % r != 0:
                continue
            d = k - 1 + r
            t = d // r
            alpha = comb(k - 1, t - 1)
            if alpha <= alpha_cap:
                cases.append(WitnessCase(k=k, d=d, t=t, alpha=alpha))
    return cases


def sweep_small_cases(alpha_cap: int, witness_field: FieldSpec | None = None,
                      seed: int = 0, max_redraws: int = 10) -> list[WitnessReport]:
    """Run the witness over every primitive case with alpha <= alpha_cap.

    Each case gets an independent stream derived from (seed, k, d), so
    results do not depend on evaluation order.
    """
    if witness_field is None:
        witness_field = prime_field(127)
    reports = []
    for case in enumerate_primitive_cases(alpha_cap):
        params = derive_params(case.d + 1, case.k, case.d, SYMMETRIC)
        case_seed = f"{seed}:{case.k}:{case.d}:{case.t}"
        reports.append(nullstellensatz_witness(
            params, witness_field, seed=case_seed, max_redraws=max_redraws))
    return reports


def render_report_table(reports: list[WitnessReport]) -> str:
    """Tab-separated table: k, d, t, alpha, field, redraws, verdict."""
    lines = ["k\td\tt\talpha\tfield\tredraws\tverdict"]
    for r in reports:
        c = r.case
        lines.append(f"{c.k}\t{c.d}\t{c.t}\t{c.alpha}\t"
                     f"{r.field_order_used}\t{r.redraws}\t{r.verdict}")
    return "\n".join(lines) + "\n"
