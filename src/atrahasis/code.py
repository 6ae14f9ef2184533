"""The general multilinear MSR code, in symmetric-power and
exterior-power flavors.

A code instance is a StarFamily: per-node star vectors (x_h, y_h) over
F^t x F^(k-t+1) in the symmetric flavor, or (x_h, w_h) over F^t x F^k in
the exterior flavor.  The file is a linear functional on the product of
F^t with the degree-t symmetric (resp. exterior) power, held as its
coordinates against the canonical monomial basis.  Node contents and
help messages are evaluations of that functional at canonical basis
tensors of the node's / message's subspace.  Every such tensor is built
by tensors.star_rows, the repair-span axiom's through axiom_rows; the
two flavors differ only in the insertion maps it reads.

This module builds the family and its help and send matrices;
transforms.ShortenedCode builds the download and repair matrices and
applies them all to values (download_matrix and repair_matrix here are
those of a plain family, its shortening of depth 0).  A family caches,
per node, its basis tensors and the SpanSolver that restates any tensor
of the node's subspace over them, which every send and help matrix of
the node reuses.  Star vectors, files, node contents, help messages and
every matrix are plain lists of canonical ints.  Values from outside are
checked once, as they come in: StarFamily checks its star entries, and
ShortenedCode the user's symbols and the node contents and help messages
it is given; nothing built from them is checked again.

Certification.  spanning_conditions states the MDS conditions, and
verify_axioms walks every subset each names and gives the first that
fails; its cost grows as C(n, d).  For the t = 2 Reed-Solomon families of
rs_patterns (the product-matrix code: Rashmi, Shah, Kumar, IEEE Trans.
IT 2011) the construction proves the conditions, and rs_certificate
checks the proof's hypotheses in O(n*k) field operations instead: every
node's stars are pattern_stars of one point a_h, and the b_h = a_h^(k-1)
are pairwise distinct (so the a_h are too).  The proofs:

- symmetric: x_h = (1, b_h), so MDSx is the 2x2 determinant b_j - b_i;
  y_h = (1, a_h, ..., a_h^(k-2)), so MDSy is a Vandermonde determinant,
  and so is MDSd, whose row x_h tensor y_h is (1, a_h, ..., a_h^(2k-3))
  in the x-major basis;
- exterior: MDSx as above, and MDSw is Vandermonde in
  w_h = (1, a_h, ..., a_h^(k-1)).  For MDSq, let f fail and S be any
  d = 2k-2 other nodes.  A functional on F^2 tensor F^k is a pair (P, Q)
  of polynomials of degree < k, read on w.  If it vanishes on e_0
  tensor w_f, e_1 tensor w_f and every x_h tensor w_h, then
  P(a_f) = Q(a_f) = 0 and P(a_h) + b_h*Q(a_h) = 0 for h in S.  So
  R = P + z^(k-1)*Q, of degree at most 2k-2, has the 2k-1 roots a_f and
  a_h, and R = 0.  Then P = -z^(k-1)*Q forces Q to be a constant,
  Q(a_f) = 0 makes it 0, and P = 0.  So the 2k rows span.

check_axioms, which put and gen call, takes the certificate where it
holds and the walk otherwise, so every rejection is the walk's.

Everything here is a pure function of its inputs, which it never
changes; the matrices for distinct nodes may be built concurrently.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .errors import (AxiomViolationError, FieldTooSmallError,
                     InfeasibleParametersError, UsageError)
from .fields import FieldSpec
from .linalg import SpanSolver, first_deficient_subset
from .tensors import EXTERIOR, SYMMETRIC, rank_filter, star_rows


class CodeParams(namedtuple("CodeParams", "n k d t alpha beta M flavor")):
    """The parameter tuple (n, k, d, t, alpha, beta, M) plus flavor.

    The defining ratios are locked together: t = d/(d-k+1) is integral,
    alpha = C(k-1, t-1), beta = alpha/(d-k+1), M = k*alpha.  Equivalent
    restatements (the vanishing 2x2 minors of the rate table, and the
    sub-packetization bounds alpha <= 2^(k-1) and (k-1)^(t-1)) are
    asserted at construction.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, d: int, t: int, alpha: int, beta: int,
                M: int, flavor: str):
        if flavor not in (SYMMETRIC, EXTERIOR):
            raise UsageError(f"unknown flavor {flavor!r}")
        if not (n - 1 >= d >= k >= 2):
            raise InfeasibleParametersError(
                f"need n-1 >= d >= k >= 2, got (n,k,d)=({n},{k},{d})")
        r = d - k + 1
        if t * r != d:
            raise InfeasibleParametersError(f"t={t} is not d/(d-k+1) for (k,d)=({k},{d})")
        if (t - 1) * r != k - 1:
            raise InfeasibleParametersError("rank-one parameter consistency broken")
        if alpha != comb(k - 1, t - 1):
            raise InfeasibleParametersError(f"alpha must be C({k - 1},{t - 1})")
        if beta * r != alpha or beta != comb(k - 2, t - 2):
            raise InfeasibleParametersError("beta must be alpha/(d-k+1) = C(k-2,t-2)")
        if M != k * alpha:
            raise InfeasibleParametersError("M must be k*alpha")
        if t * alpha != d * beta:
            raise InfeasibleParametersError("t*alpha must equal d*beta")
        if alpha > 2 ** (k - 1) or alpha > (k - 1) ** (t - 1):
            raise InfeasibleParametersError("sub-packetization bound violated")
        return super().__new__(cls, n, k, d, t, alpha, beta, M, flavor)

    @property
    def y_dim(self) -> int:
        """Dimension of the second star space: k-t+1 (symmetric) or k (exterior)."""
        return self.k - self.t + 1 if self.flavor == SYMMETRIC else self.k


def derive_params(n: int, k: int, d: int, flavor: str = SYMMETRIC) -> CodeParams:
    """Parameters for the primitive construction at (n, k, d).

    Raises InfeasibleParametersError when t = d/(d-k+1) is not an
    integer, naming the primitive code that fills the gap: shortening by
    delta maps (n+delta, k+delta, d+delta) to (n, k, d) and keeps
    d-k+1, and the least delta makes d+delta a multiple of it.
    """
    if not (n - 1 >= d >= k >= 2):
        raise InfeasibleParametersError(
            f"need n-1 >= d >= k >= 2, got (n,k,d)=({n},{k},{d})")
    r = d - k + 1
    if d % r != 0:
        delta = -d % r
        raise InfeasibleParametersError(
            f"t = {d}/{r} is not an integer for (n,k,d)=({n},{k},{d}); shorten "
            f"the primitive ({n + delta},{k + delta},{d + delta}) code by {delta}")
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
        self._node_solvers: dict = {}
        self._msg_rows_cache: dict = {}

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

    def _node_solver(self, h: int) -> SpanSolver:
        """The SpanSolver of node h's basis tensors, built once: every
        send matrix of node h is a set of queries against it."""
        solver = self._node_solvers.get(h)
        if solver is None:
            solver = self._node_solvers[h] = SpanSolver(
                self.spec, self.node_tensor_rows(h), self.params.M)
        return solver

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

    def __repr__(self):
        p = self.params
        return (f"StarFamily(({p.n},{p.k},{p.d},{p.alpha}) {p.flavor} "
                f"over {self.spec})")


def axiom_rows(spec: FieldSpec, flavor: str, t: int, x, s) -> list[list[int]]:
    """The repair-span axiom's rows of stars (x, s): x tensor (s . e_eta)
    for the monomials eta of degree t-2, one degree below a node's."""
    return star_rows(spec, flavor, x, s, t - 2)


def quotient_rows(spec: FieldSpec, flavor: str, t: int, s) -> list[list[int]]:
    """The axiom rows of star s at x = e_c, for each c in range(t): the
    exterior repair-span axiom's slack for a failed node of star s."""
    rows = []
    for c in range(t):
        rows.extend(axiom_rows(spec, flavor, t, [int(i == c) for i in range(t)], s))
    return rows


class NodeContent(namedtuple("NodeContent", "node_index values")):
    """The alpha symbols stored by one node: values, a list of ints."""

    __slots__ = ()


class HelpMessage(namedtuple("HelpMessage", "helper failed values")):
    """The beta symbols a helper sends toward a failed node: values, a
    list of ints."""

    __slots__ = ()


def download_matrix(stars: StarFamily, indices: list[int]) -> list[list[int]]:
    """The M x M decode matrix for a node subset: stacked values -> file."""
    # transforms imports this module, so the import waits for the call
    from .transforms import ShortenedCode
    return ShortenedCode(stars, 0).decode_matrix(indices)


def send_matrix(stars: StarFamily, h: int, tensor_rows: list[list[int]]) -> list[list[int]]:
    """The map from node h's stored values to the evaluations of the given
    tensors of its subspace: each tensor's coefficients over the node
    basis tensors, which applied to the stored values give its value.
    The node's solver is built once per family and reused."""
    rows = stars._node_solver(h).coefficient_rows(tensor_rows)
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


class AxiomReport(namedtuple("AxiomReport", "ok axiom subset failed_node subsets_checked",
                             defaults=(None, None, None, 0))):
    """Outcome of verify_axioms: pass, or the first violating subset.

    ok is a bool; axiom (str), subset (tuple of nodes) and failed_node
    (int) are None on a pass; subsets_checked is an int."""

    __slots__ = ()

    def describe(self) -> str:
        if self.ok:
            return f"all axioms hold ({self.subsets_checked} subsets checked)"
        where = f"subset {self.subset}"
        if self.failed_node is not None:
            where += f", failed node {self.failed_node}"
        return f"{self.axiom} violated at {where}"

    def check(self) -> None:
        """Raise AxiomViolationError naming the violation, unless ok."""
        if not self.ok:
            raise AxiomViolationError(self.axiom, self.subset, self.failed_node,
                                      message=self.describe())


def spanning_conditions(p: CodeParams, xs, ss, rows, quotients):
    """Each MDS condition of nodes with stars (xs[h], ss[h]), axiom rows
    rows[h] and exterior quotient rows quotients[h], as (axiom, failed
    node or None, blocks by node, size, target, base): every size-subset
    of the other nodes reaches rank `target` with the base rows.

    MDSx: any t x-vectors span F^t.  Symmetric: any k-t+1 y-vectors span
    their space (MDSy), and any d nodes' axiom rows have rank d*beta
    (MDSd).  Exterior: any k w-vectors span F^k (MDSw), and for each
    failed node f any d others' axiom rows span over f's quotient rows
    (MDSq)."""
    yield "MDSx", None, [[x] for x in xs], p.t, p.t, ()
    yield ("MDSy" if p.flavor == SYMMETRIC else "MDSw", None, [[s] for s in ss],
           p.y_dim, p.y_dim, ())
    # the axiom rows fill their whole space, X tensor the degree-(t-1)
    # power; symmetric: d*beta stacked tensors fill X tensor S^(t-1)
    full_rank = len(rows[0][0])
    assert p.flavor != SYMMETRIC or full_rank == p.d * p.beta
    if p.flavor == SYMMETRIC:
        yield "MDSd", None, rows, p.d, full_rank, ()
    else:
        for f, base in enumerate(quotients):
            yield "MDSq", f, rows, p.d, full_rank, base


def verify_axioms(stars: StarFamily) -> AxiomReport:
    """Exhaustively check every MDS spanning condition of the family.

    Every condition of spanning_conditions is one first_deficient_subset
    walk over the blocks of the nodes other than its failed node: a
    single star vector each for MDSx and MDSy/MDSw, the axiom rows for
    MDSd and MDSq (with the failed node's quotient rows as the base).  A
    d-subset of n nodes is a large side, so the last checks usually walk
    the (n-d)-subsets of the dual matroid (see linalg): on the fixture 3
    of 9 blocks, and on RS (12,5,8) exterior 3 of 11 rows of F^3 per
    failed node.  A failing report counts every subset in combinations
    order up to and including the first one that fails, as a one-by-one
    check would; a dual walk that fails hands over to the primal walk,
    which names that subset.
    """
    p, spec = stars.params, stars.spec
    xs, ss = stars.x_stars, stars.second_stars
    rows = [axiom_rows(spec, p.flavor, p.t, x, s) for x, s in zip(xs, ss)]
    quotients = ([quotient_rows(spec, p.flavor, p.t, s) for s in ss]
                 if p.flavor == EXTERIOR else None)
    checked = 0
    for axiom, f, blocks, size, target, base in spanning_conditions(p, xs, ss, rows, quotients):
        nodes = [h for h in range(p.n) if h != f]
        miss = first_deficient_subset(spec, [blocks[h] for h in nodes], size, target, base)
        if miss is not None:
            checked += _combination_index(miss, len(nodes)) + 1
            return AxiomReport(False, axiom, tuple(nodes[i] for i in miss), f, checked)
        checked += comb(len(nodes), size)
    return AxiomReport(True, subsets_checked=checked)


def _combination_index(subset: tuple, n: int) -> int:
    """Position of a sorted subset of range(n) in combinations order."""
    index, prev, size = 0, -1, len(subset)
    for i, c in enumerate(subset):
        index += sum(comb(n - 1 - j, size - 1 - i) for j in range(prev + 1, c))
        prev = c
    return index


def pattern_stars(spec: FieldSpec, a: int, x_pattern, y_pattern) -> tuple:
    """The star vectors of point a: x = [a^e for e in x_pattern], the
    second star likewise (0^0 = 1)."""
    return [spec.pow(a, e) for e in x_pattern], [spec.pow(a, e) for e in y_pattern]


def pattern_family(spec: FieldSpec, params: CodeParams, points, x_pattern,
                   y_pattern) -> StarFamily:
    """The family whose star vectors are those pattern_stars gives each
    per-node point."""
    stars = [pattern_stars(spec, a, x_pattern, y_pattern) for a in points]
    return StarFamily(spec, params, [x for x, _ in stars], [s for _, s in stars])


def rs_patterns(k: int, flavor: str) -> tuple:
    """The t = 2 Reed-Solomon exponents, the product-matrix Vandermonde
    rows (Rashmi, Shah, Kumar, IEEE Trans. IT 2011): x = (0, k-1), and
    range(k-1) (symmetric) or range(k) (exterior)."""
    return (0, k - 1), tuple(range(k - 1 if flavor == SYMMETRIC else k))


def rs_certificate(stars: StarFamily) -> bool:
    """Whether the module docstring's proof covers the family: t = 2, and
    each node's stars are those of rs_patterns at the point a_h read off
    its second star (off x when k = 2, where a symmetric y is (1)), with
    the a_h^(k-1) pairwise distinct.  True proves every condition
    verify_axioms checks; False proves nothing."""
    p = stars.params
    if p.t != 2:
        return False
    patterns = rs_patterns(p.k, p.flavor)
    powers = set()
    for x, s in zip(stars.x_stars, stars.second_stars):
        if pattern_stars(stars.spec, x[1] if p.k == 2 else s[1], *patterns) != (x, s):
            return False
        powers.add(x[1])
    return len(powers) == p.n


def check_axioms(stars: StarFamily) -> None:
    """Raise AxiomViolationError naming the walk's first violation unless
    every axiom holds: proved by rs_certificate where it applies, and by
    the verify_axioms walk otherwise."""
    if not rs_certificate(stars):
        verify_axioms(stars).check()


def rs_stars_t2(spec: FieldSpec, n: int, k: int, flavor: str = SYMMETRIC) -> StarFamily:
    """Reed-Solomon star selection for the t = 2 point d = 2(k-1).

    Picks evaluation points whose (k-1)-th powers are pairwise distinct,
    scanning the field in canonical order, and gives them the stars of
    rs_patterns.
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
    return pattern_family(spec, params, points, *rs_patterns(k, flavor))
