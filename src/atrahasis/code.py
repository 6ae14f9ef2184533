"""The general multilinear MSR code, in symmetric-power and
exterior-power flavors.

A code instance is a StarFamily: per-node star vectors (x_h, y_h) over
F^t x F^(k-t+1) in the symmetric flavor, or (x_h, w_h) over F^t x F^k in
the exterior flavor.  The file is a linear functional on the product of
F^t with the degree-t symmetric (resp. exterior) power, held as its
coordinates against the canonical monomial basis.  Node contents and
help messages are evaluations of that functional at canonical basis
tensors of the node's / message's subspace.  Every such tensor, and
every row of the repair-span axiom, is built by tensors.star_rows; the
two flavors differ only in the product it takes.

This module builds the family and the matrices of download, help and
repair; transforms.ShortenedCode applies them to values (a plain family
is its shortening of depth 0).  Star vectors, files, node contents, help
messages and every matrix are plain lists of canonical ints.  Values
from outside are checked once, as they come in: StarFamily checks its
star entries, and ShortenedCode the user's symbols and the node contents
and help messages it is given; nothing built from them is checked again.

Everything here is a pure function of its inputs, which it never
changes; the matrices for distinct nodes may be built concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import (AxiomViolationError, FieldTooSmallError,
                     InfeasibleParametersError, UsageError)
from .fields import FieldSpec
from .linalg import SpanSolver, first_deficient_subset, invert, rank_of_rows
from .tensors import EXTERIOR, SYMMETRIC, rank_filter, star_rows


@dataclass(frozen=True)
class CodeParams:
    """The parameter tuple (n, k, d, t, alpha, beta, M) plus flavor.

    The defining ratios are locked together: t = d/(d-k+1) is integral,
    alpha = C(k-1, t-1), beta = alpha/(d-k+1), M = k*alpha.  Equivalent
    restatements (the vanishing 2x2 minors of the rate table, and the
    sub-packetization bounds alpha <= 2^(k-1) and (k-1)^(t-1)) are
    asserted at construction.
    """

    n: int
    k: int
    d: int
    t: int
    alpha: int
    beta: int
    M: int
    flavor: str

    def __post_init__(self):
        n, k, d, t = self.n, self.k, self.d, self.t
        if self.flavor not in (SYMMETRIC, EXTERIOR):
            raise UsageError(f"unknown flavor {self.flavor!r}")
        if not (n - 1 >= d >= k >= 2):
            raise InfeasibleParametersError(
                f"need n-1 >= d >= k >= 2, got (n,k,d)=({n},{k},{d})")
        r = d - k + 1
        if t * r != d:
            raise InfeasibleParametersError(f"t={t} is not d/(d-k+1) for (k,d)=({k},{d})")
        if (t - 1) * r != k - 1:
            raise InfeasibleParametersError("rank-one parameter consistency broken")
        if self.alpha != comb(k - 1, t - 1):
            raise InfeasibleParametersError(f"alpha must be C({k - 1},{t - 1})")
        if self.beta * r != self.alpha or self.beta != comb(k - 2, t - 2):
            raise InfeasibleParametersError("beta must be alpha/(d-k+1) = C(k-2,t-2)")
        if self.M != k * self.alpha:
            raise InfeasibleParametersError("M must be k*alpha")
        if self.t * self.alpha != d * self.beta:
            raise InfeasibleParametersError("t*alpha must equal d*beta")
        if self.alpha > 2 ** (k - 1) or self.alpha > (k - 1) ** (t - 1):
            raise InfeasibleParametersError("sub-packetization bound violated")

    @property
    def y_dim(self) -> int:
        """Dimension of the second star space: k-t+1 (symmetric) or k (exterior)."""
        return self.k - self.t + 1 if self.flavor == SYMMETRIC else self.k


def derive_params(n: int, k: int, d: int, flavor: str = SYMMETRIC) -> CodeParams:
    """Parameters for the primitive construction at (n, k, d).

    Raises InfeasibleParametersError when t = d/(d-k+1) is not an
    integer; such gaps are filled by shortening a larger code instead.
    """
    if not (n - 1 >= d >= k >= 2):
        raise InfeasibleParametersError(
            f"need n-1 >= d >= k >= 2, got (n,k,d)=({n},{k},{d})")
    r = d - k + 1
    if d % r != 0:
        raise InfeasibleParametersError(
            f"t = {d}/{r} is not an integer for (n,k,d)=({n},{k},{d}); "
            f"shorten a larger primitive code instead")
    t = d // r
    alpha = comb(k - 1, t - 1)
    beta = comb(k - 2, t - 2)
    return CodeParams(n=n, k=k, d=d, t=t, alpha=alpha, beta=beta,
                      M=k * alpha, flavor=flavor)


class StarFamily:
    """Per-node star vectors for a code instance.

    x_stars[h] lives in F^t; second_stars[h] in F^(k-t+1) (symmetric
    flavor, the y vectors) or F^k (exterior flavor, the w vectors, all
    nonzero), each a list of canonical ints of spec, checked here.  The
    family is immutable; expansion caches are private.
    """

    def __init__(self, spec: FieldSpec, params: CodeParams,
                 x_stars: list[list[int]], second_stars: list[list[int]]):
        if len(x_stars) != params.n or len(second_stars) != params.n:
            raise UsageError(f"need exactly {params.n} star vector pairs")
        self.x_stars = [list(x) for x in x_stars]
        self.second_stars = [list(s) for s in second_stars]
        if any(len(x) != params.t for x in self.x_stars):
            raise UsageError("x star vectors must have length t")
        if any(len(s) != params.y_dim for s in self.second_stars):
            raise UsageError(f"second star vectors must have length {params.y_dim}")
        for v in self.x_stars + self.second_stars:
            for value in v:
                spec.check_value(value)
        if params.flavor == EXTERIOR and not all(any(s) for s in self.second_stars):
            raise UsageError("exterior flavor forbids zero w star vectors")
        self.spec = spec
        self.params = params
        self._node_rows_cache: dict = {}
        self._msg_rows_cache: dict = {}
        self._axiom_rows_cache: dict = {}

    def _check_node(self, h: int) -> int:
        if not 0 <= h < self.params.n:
            raise UsageError(f"node index {h} out of range 0..{self.params.n - 1}")
        return h

    def _star_rows(self, h: int, degree: int, targets: tuple = ()) -> list[list[int]]:
        return star_rows(self.spec, self.params.flavor, self.x_stars[h],
                         self.second_stars[h], degree, targets)

    def node_tensor_rows(self, h: int) -> list[list[int]]:
        """The alpha basis tensors of node h's subspace, in ambient coordinates.

        The builder's rows span the subspace (in the exterior flavor they
        are redundant); the first alpha independent ones are kept."""
        h = self._check_node(h)
        rows = self._node_rows_cache.get(h)
        if rows is None:
            p = self.params
            rows, _ = rank_filter(self.spec, self._star_rows(h, p.t - 1), limit=p.alpha)
            if len(rows) != p.alpha:
                raise AxiomViolationError(
                    "node-subspace-dimension", subset=(h,),
                    message=f"node {h} stores {len(rows)} independent symbols, "
                            f"expected alpha={p.alpha}")
            self._node_rows_cache[h] = rows
        return rows

    def message_tensor_rows(self, h: int, f: int) -> list[list[int]]:
        """The beta basis tensors of the (h -> f) help-message subspace."""
        h = self._check_node(h)
        f = self._check_node(f)
        if h == f:
            raise UsageError("a node does not help itself")
        key = (h, f)
        rows = self._msg_rows_cache.get(key)
        if rows is None:
            p = self.params
            rows, _ = rank_filter(
                self.spec, self._star_rows(h, p.t - 2, (self.second_stars[f],)),
                limit=p.beta)
            if len(rows) != p.beta:
                raise AxiomViolationError(
                    "message-subspace-dimension", subset=(h,), failed_node=f,
                    message=f"help message {h}->{f} has {len(rows)} independent "
                            f"symbols, expected beta={p.beta}")
            self._msg_rows_cache[key] = rows
        return rows

    def axiom_tensor_rows(self, h: int) -> list[list[int]]:
        """Node h's contribution to the repair-span axiom, one degree down."""
        h = self._check_node(h)
        rows = self._axiom_rows_cache.get(h)
        if rows is None:
            rows = self._star_rows(h, self.params.t - 2)
            self._axiom_rows_cache[h] = rows
        return rows

    def quotient_rows(self, f: int) -> list[list[int]]:
        """The slack X tensor (s_f . ...) rows the exterior flavor's
        repair-span axiom adds for failed node f."""
        p = self.params
        return quotient_rows(self.spec, p.flavor, p.t, self.second_stars[f])

    def __repr__(self):
        p = self.params
        return (f"StarFamily(({p.n},{p.k},{p.d},{p.alpha}) {p.flavor} "
                f"over {self.spec})")


def quotient_rows(spec: FieldSpec, flavor: str, t: int, s) -> list[list[int]]:
    """The axiom rows of star s at x = e_c, for each c in range(t)."""
    rows = []
    for c in range(t):
        rows.extend(star_rows(spec, flavor, [int(i == c) for i in range(t)], s, t - 2))
    return rows


@dataclass(frozen=True)
class NodeContent:
    """The alpha symbols stored by one node."""

    node_index: int
    values: list[int]


@dataclass(frozen=True)
class HelpMessage:
    """The beta symbols a helper sends toward a failed node."""

    helper: int
    failed: int
    values: list[int]


def download_matrix(stars: StarFamily, indices: list[int]) -> list[list[int]]:
    """The M x M decode matrix for a node subset: stacked values -> file."""
    p = stars.params
    if len(indices) != p.k or len(set(indices)) != p.k:
        raise UsageError(f"download needs exactly {p.k} distinct nodes")
    rows = []
    for h in indices:
        rows.extend(stars.node_tensor_rows(h))
    Ainv = invert(stars.spec, rows)
    if Ainv is None:
        raise AxiomViolationError("download-span", subset=sorted(indices))
    return Ainv


def send_matrix(stars: StarFamily, h: int, tensor_rows: list[list[int]]) -> list[list[int]]:
    """The map from node h's stored values to the evaluations of the given
    tensors of its subspace: each tensor's coefficients over the node
    basis tensors, which applied to the stored values give its value."""
    solver = SpanSolver(stars.spec, stars.node_tensor_rows(h), stars.params.M)
    rows = solver.coefficient_rows(tensor_rows)
    if rows is None:
        raise AxiomViolationError(
            "message-containment", subset=(h,),
            message=f"node {h} is asked to send a tensor outside its subspace")
    return rows


def help_matrix(stars: StarFamily, h: int, f: int) -> list[list[int]]:
    """beta x alpha map from node h's stored values to its message for f."""
    return send_matrix(stars, h, stars.message_tensor_rows(h, f))


def repair_matrix(stars: StarFamily, f: int, helpers: list[int]) -> list[list[int]]:
    """alpha x (d*beta) map from concatenated help messages to node f's
    values: the recovery of the single-failure repair program the store
    runs."""
    # transforms imports this module, so the import waits for the call
    from .transforms import ShortenedCode
    return ShortenedCode(stars, 0).repair_matrix(f, helpers)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of verify_axioms: pass, or the first violating subset."""

    ok: bool
    axiom: str | None = None
    subset: tuple | None = None
    failed_node: int | None = None
    subsets_checked: int = 0

    def describe(self) -> str:
        if self.ok:
            return f"all axioms hold ({self.subsets_checked} subsets checked)"
        where = f"subset {self.subset}"
        if self.failed_node is not None:
            where += f", failed node {self.failed_node}"
        return f"{self.axiom} violated at {where}"


def verify_axioms(stars: StarFamily) -> AxiomReport:
    """Exhaustively check every MDS spanning condition of the family.

    Symmetric flavor: any t x-vectors span F^t; any k-t+1 y-vectors span
    their space; for any d nodes the stacked degree-(t-1) tensors have
    full rank d*beta.  Exterior flavor replaces the second check by any
    k w-vectors spanning F^k, and the third by the quotient-augmented
    rank test over every (failed node, d-subset) pair.

    The d-subset checks walk the subsets with first_deficient_subset;
    a failing report counts every subset in combinations order up to
    and including the first one that fails, as a one-by-one check would.
    """
    p = stars.params
    spec = stars.spec
    checked = 0

    def fail(axiom, subset, failed_node=None):
        return AxiomReport(False, axiom, tuple(subset), failed_node, checked)

    for subset in combinations(range(p.n), p.t):
        checked += 1
        if rank_of_rows(spec, [stars.x_stars[h] for h in subset]) != p.t:
            return fail("MDSx", subset)

    second_need = p.y_dim
    second_name = "MDSy" if p.flavor == SYMMETRIC else "MDSw"
    for subset in combinations(range(p.n), second_need):
        checked += 1
        if rank_of_rows(spec, [stars.second_stars[h] for h in subset]) != second_need:
            return fail(second_name, subset)

    # the axiom rows fill their whole space, X tensor the degree-(t-1) power
    full_rank = len(stars.axiom_tensor_rows(0)[0])
    if p.flavor == SYMMETRIC:
        # d*beta stacked tensors must fill X tensor S^(t-1): rank d*beta
        assert full_rank == p.d * p.beta
        axiom, passes = "MDSd", [(None, list(range(p.n)), ())]
    else:
        axiom = "MDSq"
        passes = ((f, [h for h in range(p.n) if h != f], stars.quotient_rows(f))
                  for f in range(p.n))
    for f, nodes, base in passes:
        blocks = [stars.axiom_tensor_rows(h) for h in nodes]
        miss = first_deficient_subset(spec, blocks, p.d, full_rank, base)
        if miss is not None:
            checked += _combination_index(miss, len(nodes)) + 1
            return fail(axiom, [nodes[i] for i in miss], failed_node=f)
        checked += comb(len(nodes), p.d)

    return AxiomReport(True, subsets_checked=checked)


def _combination_index(subset: tuple, n: int) -> int:
    """Position of a sorted subset of range(n) in combinations order."""
    index, prev, size = 0, -1, len(subset)
    for i, c in enumerate(subset):
        index += sum(comb(n - 1 - j, size - 1 - i) for j in range(prev + 1, c))
        prev = c
    return index


def rs_stars_t2(spec: FieldSpec, n: int, k: int, flavor: str = SYMMETRIC) -> StarFamily:
    """Reed-Solomon star selection for the t = 2 point d = 2(k-1).

    Picks evaluation points whose (k-1)-th powers are pairwise distinct,
    scanning the field in canonical order; x_h = [1, a_h^(k-1)] and the
    second star is the moment vector [1, a_h, ..., a_h^(k-2)] (symmetric)
    or [1, a_h, ..., a_h^(k-1)] (exterior).
    """
    d = 2 * (k - 1)
    params = derive_params(n, k, d, flavor)
    assert params.t == 2
    points = []
    seen_powers = set()
    for v in range(spec.order):
        xi = spec.pow(v, k - 1)
        if xi in seen_powers:
            continue
        seen_powers.add(xi)
        points.append(v)
        if len(points) == n:
            break
    if len(points) < n:
        raise FieldTooSmallError(
            f"{spec} has only {len(points)} distinct (k-1)-th powers, need {n}")
    x_stars = [[1, spec.pow(a, k - 1)] for a in points]
    top = k - 2 if flavor == SYMMETRIC else k - 1
    second = [[spec.pow(a, e) for e in range(top + 1)] for a in points]
    return StarFamily(spec, params, x_stars, second)
