"""Finding and certifying star families.

Two routes:

* grow_pool -- deterministic greedy brute force.  Candidate evaluation
  points are scanned in canonical field order; a point joins the pool
  iff every spanning condition touching it still holds.  Each condition
  is one linalg.first_deficient_subset walk: the candidate's rows are
  the base, the pool points' rows the blocks.  The exhaustive check is
  the certification path for concrete families.

* nullstellensatz_witness -- randomized polynomial identity testing for
  the repair-span determinant.  Random star vectors over a small prime
  field are expanded into the d*beta square matrix; one nonzero
  determinant evaluation witnesses that the determinant polynomial is
  nonzero over the integers, hence star vectors exist over sufficiently
  large fields.  A witness does NOT certify any specific family over a
  specific field; grow_pool (or verify_axioms) does that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .code import (EXTERIOR, SYMMETRIC, CodeParams, StarFamily, derive_params,
                   quotient_rows)
from .errors import UsageError
from .fields import FieldSpec, prime_field
from .linalg import det, first_deficient_subset
from .tensors import star_rows

NONZERO_WITNESSED = "nonzero-witnessed"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SearchConfig:
    """Inputs of a deterministic pool search.

    x_pattern / y_pattern are exponent lists: point a becomes
    x = [a^e for e in x_pattern] (with 0^0 = 1) and likewise for the
    second star vector.  Pattern lengths must be t and the second-space
    dimension (k-t+1 symmetric, k exterior).
    """

    spec: FieldSpec
    params: CodeParams
    x_pattern: tuple
    y_pattern: tuple

    def __post_init__(self):
        object.__setattr__(self, "x_pattern", tuple(self.x_pattern))
        object.__setattr__(self, "y_pattern", tuple(self.y_pattern))
        p = self.params
        if len(self.x_pattern) != p.t or len(self.y_pattern) != p.y_dim:
            raise UsageError(f"patterns must have lengths {p.t} and {p.y_dim}")
        if any(e < 0 for e in self.x_pattern + self.y_pattern):
            raise UsageError("pattern exponents must be non-negative")


@dataclass(frozen=True)
class PoolResult:
    """Outcome of grow_pool: the pool found, and a family when viable.

    ok means the pool supports at least one valid code (pool >= d+1,
    since a code needs n-1 >= d).  The family spans the whole pool; any
    subfamily inherits the axioms, which quantify over all subsets.
    """

    ok: bool
    pool: tuple
    family: StarFamily | None
    reason: str = ""


def _pattern_vector(spec: FieldSpec, a: int, pattern) -> list[int]:
    return [spec.pow(a, e) for e in pattern]


def grow_pool(cfg: SearchConfig) -> PoolResult:
    """Greedy brute-force pool growth over the whole field.

    Incremental checking: only subsets touching the candidate point are
    re-verified, which is equivalent to full re-verification because
    previously accepted subsets are untouched by a new point.  Each pool
    point's axiom and quotient rows are built once, when it is admitted.
    """
    spec = cfg.spec
    p = cfg.params
    pool: list[int] = []
    xs: list[list[int]] = []
    ss: list[list[int]] = []
    blocks: list[list] = []
    quotients: list[list] = []
    for v in range(spec.order):
        x = _pattern_vector(spec, v, cfg.x_pattern)
        s = _pattern_vector(spec, v, cfg.y_pattern)
        if p.flavor == EXTERIOR and not any(s):
            continue
        rows = _admitted_rows(spec, p, xs, ss, blocks, quotients, x, s)
        if rows is not None:
            pool.append(v)
            xs.append(x)
            ss.append(s)
            blocks.append(rows[0])
            quotients.append(rows[1])
    if len(pool) < p.d + 1:
        return PoolResult(False, tuple(pool), None,
                          f"pool of {len(pool)} points cannot support d={p.d}")
    params = derive_params(len(pool), p.k, p.d, p.flavor)
    family = StarFamily(spec, params, xs, ss)
    return PoolResult(True, tuple(pool), family)


def _admitted_rows(spec, p, xs, ss, blocks, quotients, x_new, s_new):
    """The new point's (axiom rows, quotient rows) if all spanning
    conditions still hold once (x_new, s_new) joins; None if one fails.

    Each check puts the new point's rows first and lets the subset walk
    fill in every choice of pool points around them.
    """
    if first_deficient_subset(spec, [[x] for x in xs], p.t - 1, p.t, [x_new]) is not None:
        return None
    if first_deficient_subset(spec, [[s] for s in ss], p.y_dim - 1, p.y_dim,
                              [s_new]) is not None:
        return None
    new_rows = star_rows(spec, p.flavor, x_new, s_new, p.t - 2)
    full = len(new_rows[0])
    if p.flavor == SYMMETRIC:
        if first_deficient_subset(spec, blocks, p.d - 1, full, new_rows) is not None:
            return None
        return new_rows, None
    # pairs (f, H) touching the new point: it is the failed node, or it
    # is one of the d helpers
    new_quotient = quotient_rows(spec, p.flavor, p.t, s_new)
    if first_deficient_subset(spec, blocks, p.d, full, new_quotient) is not None:
        return None
    if any(first_deficient_subset(spec, blocks[:f] + blocks[f + 1:], p.d - 1, full,
                                  new_rows + quotients[f]) is not None
           for f in range(len(xs))):
        return None
    return new_rows, new_quotient


@dataclass(frozen=True)
class WitnessCase:
    k: int
    d: int
    t: int
    alpha: int


@dataclass(frozen=True)
class WitnessReport:
    """One randomized determinant run and its verdict.

    A nonzero-witnessed verdict records the evaluation point (the drawn
    star vectors) and the determinant value, so the run can be replayed.
    """

    case: WitnessCase
    field_order_used: int
    redraws: int
    verdict: str
    x_points: tuple = ()
    y_points: tuple = ()
    determinant: int = 0


def witness_matrix(spec: FieldSpec, t: int, xs: list[list[int]],
                   ys: list[list[int]]) -> list[list[int]]:
    """Stack the d*beta expanded tensors of the d star pairs (xs, ys)
    into the square witness matrix."""
    rows = []
    for x, y in zip(xs, ys):
        rows.extend(star_rows(spec, SYMMETRIC, x, y, t - 2))
    return rows


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
        xs = [[rng.randrange(order) for _ in range(t)] for _ in range(d)]
        ys = [[rng.randrange(order) for _ in range(k - t + 1)] for _ in range(d)]
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
