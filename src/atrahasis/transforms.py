"""Code transforms: shortening, and centralized repair of two
simultaneous failures for t = 3 symmetric codes.

Shortening retires trailing nodes by constraining their contents to
zero.  Encoding then parameterizes the constraint nullspace (canonical
echelon pivots, so the map is systematic in the free coordinates);
download and repair drop the columns the retired nodes' zero contents
and zero help messages would feed.  Depth delta turns an
(n, k, d, alpha) instance into (n-delta, k-delta, d-delta, alpha),
keeping d-k+1 and beta.  A ShortenedCode is the one code type of the
store: every code-spec file parses to one, and a plain spec is its
depth 0.  It builds every matrix the store applies (put, decode, and
the regeneration of one or two failed nodes), and its scalar download,
help_message and repair apply the same matrices.

Two-failure repair gathers messages at a central agent under one of
three strategies: every helper sends its restriction toward both failed
nodes (naive); one helper sends only the first node's message and the
rebuilt node helps the second (cascade); or helpers stream symbols only
until the joint target subspace is covered (subspace), whose dimension
3(k-2)^2 is the best total here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .code import (SYMMETRIC, FileTensor, HelpMessage, NodeContent,
                   StarFamily, download_matrix, help_matrix, help_message,
                   message_values, node_content, repair_matrix, stack_values)
from .errors import AxiomViolationError, UsageError
from .linalg import Echelon, SpanSolver, matvec, nullspace_with_free


NAIVE = "naive"
CASCADE = "cascade"
SUBSPACE = "subspace"
STRATEGIES = (NAIVE, CASCADE, SUBSPACE)


class ShortenedCode:
    """A base code instance with `depth` trailing nodes pinned to zero; a
    plain star family is its shortening of depth 0.

    Effective parameters: (n-depth, k-depth, d-depth, alpha); the file
    shrinks to (k-depth)*alpha user symbols, and d-k+1, alpha, beta are
    untouched.  Live nodes are the base indices 0..n-depth-1.

    Encoding is systematic: user symbol j is the base file coordinate
    free_cols[j], and each other coordinate c is fixed by the pinned zeros
    as constrained[c] . user symbols; the file is the user symbols'
    combination of the nullspace basis rows.  At depth 0 every coordinate
    is free and nothing is constrained.
    """

    def __init__(self, base: StarFamily, depth: int):
        p = base.params
        if depth < 0 or depth >= p.k:
            raise UsageError(f"shorten depth must satisfy 0 <= depth < k={p.k}")
        self.base = base
        self.depth = depth
        self.pinned = tuple(range(p.n - depth, p.n))
        self.spec = base.spec
        self.alpha = p.alpha
        self.beta = p.beta
        self.n = p.n - depth
        self.k = p.k - depth
        self.d = p.d - depth
        self.M = self.k * p.alpha
        self.free_cols = list(range(p.M))
        self.constrained: dict[int, list[int]] = {}
        self._basis = [[int(i == j) for j in range(p.M)] for i in range(p.M)]
        if depth == 0:
            return
        constraint_rows = []
        for h in self.pinned:
            constraint_rows.extend(base.node_tensor_rows(h))
        # systematic parameterization of the constraint nullspace: user
        # symbols sit at the free columns and read back directly
        self._basis, self.free_cols = nullspace_with_free(self.spec, constraint_rows)
        if len(self._basis) != self.M:
            raise AxiomViolationError(
                "shorten-constraint", subset=self.pinned,
                message=f"pinning {depth} nodes cut {p.M - len(self._basis)} "
                        f"dimensions, expected {depth * p.alpha}")
        free = set(self.free_cols)
        self.constrained = {c: [v[c] for v in self._basis]
                            for c in range(p.M) if c not in free}

    def encode(self, raw) -> FileTensor:
        """Map (k-depth)*alpha user symbols, each checked to be a canonical
        element, to a base file with pinned node contents all zero."""
        values = [self.spec.check_value(v) for v in raw]
        if len(values) != self.M:
            raise UsageError(f"shortened encode needs {self.M} symbols, got {len(values)}")
        columns = [list(column) for column in zip(*self._basis)]
        return FileTensor(self.base.params, matvec(self.spec, columns, values))

    def decode(self, file: FileTensor) -> list[int]:
        """Read the user symbols back off the free coordinates."""
        return [file.values[c] for c in self.free_cols]

    def node_content(self, file: FileTensor, h: int) -> NodeContent:
        self._check_live(h)
        return node_content(file, self.base, h)

    def put_matrix(self) -> list[list[int]]:
        """The M user symbols -> the n*alpha values of the live nodes, node h
        owning rows h*alpha .. (h+1)*alpha - 1: each node tensor row
        restated over the user symbols through encode."""
        spec, rows = self.spec, []
        for h in range(self.n):
            for row in self.base.node_tensor_rows(h):
                out = [row[c] for c in self.free_cols]
                for c, constraint in self.constrained.items():
                    if row[c]:
                        out = [spec.add(a, spec.mul(row[c], b))
                               for a, b in zip(out, constraint)]
                rows.append(out)
        return rows

    def decode_matrix(self, nodes: list[int]) -> list[list[int]]:
        """The stacked values of k live nodes -> the M user symbols.  The
        pinned nodes' zero values are sliced away, and only the free (user)
        coordinates of the base file are kept."""
        self._check_live(*nodes)
        D = download_matrix(self.base, list(nodes) + list(self.pinned))
        return [D[c][:self.k * self.alpha] for c in self.free_cols]

    def repair_matrix(self, f: int, helpers: list[int]) -> list[list[int]]:
        """The help messages of d live helpers -> node f's values.  The
        pinned nodes' messages are zero, so their columns are dropped."""
        self._check_live(f, *helpers)
        R = repair_matrix(self.base, f, list(helpers) + list(self.pinned))
        return [row[:self.d * self.beta] for row in R]

    def repair_program(self, failed: list[int], helpers: list[int],
                       strategy: str = SUBSPACE) -> tuple[list, list]:
        """One or two failed nodes rebuilt from d live helpers, as (sends,
        recover): each helper that sends anything with the matrix it
        applies to its values, and per failed node one matrix over all that
        is sent.  Two failures put the pinned nodes, which send zeros, first
        in the agent's helper list, then drop their sends, empty sends and
        the columns these feed; the cascade's second recovery, which also
        reads the rebuilt first node, is composed with the first."""
        if len(failed) == 1:
            f, = failed
            return ([(h, help_matrix(self.base, h, f)) for h in helpers],
                    [self.repair_matrix(f, helpers)])
        f, g = failed
        program = central_repair_program(self.base, f, g,
                                         list(self.pinned) + list(helpers), strategy)
        sends, kept, pos = [], [], 0
        for (h, sent), S in zip(program.plan.per_helper_sent, program.send_matrices):
            if h not in self.pinned and sent:
                sends.append((h, S))
                kept.extend(range(pos, pos + sent))
            pos += sent
        spec, first, second = self.spec, program.recover_first, program.recover_second
        if program.second_uses_first:
            columns = [list(column) for column in zip(*first)]
            second = [[spec.add(a, b) for a, b in zip(row, matvec(spec, columns, row[pos:]))]
                      for row in second]
        return sends, [[[row[c] for c in kept] for row in R] for R in (first, second)]

    def download(self, contents: list[NodeContent]) -> list[int]:
        """Recover the user symbols from any k-depth live node contents."""
        if len(contents) != self.k:
            raise UsageError(f"shortened download needs {self.k} node contents")
        D = self.decode_matrix([c.node_index for c in contents])
        return matvec(self.spec, D, stack_values(self.spec, contents, self.alpha,
                                                 "node content"))

    def help_message(self, content: NodeContent, f: int) -> HelpMessage:
        self._check_live(content.node_index, f)
        return help_message(content, self.base, f)

    def repair(self, messages: list[HelpMessage]) -> NodeContent:
        """Repair from d-depth live helpers; the retired nodes' messages
        are zero, so repair_matrix drops their columns."""
        if len(messages) != self.d:
            raise UsageError(f"shortened repair needs {self.d} live help messages")
        f, helpers, received = message_values(self.spec, messages, self.beta)
        return NodeContent(f, matvec(self.spec, self.repair_matrix(f, helpers), received))

    def _check_live(self, *nodes: int):
        for h in nodes:
            if not 0 <= h < self.n:
                raise UsageError(f"node {h} is not a live node of the shortened code")

    def __repr__(self):
        return (f"ShortenedCode(({self.n},{self.k},{self.d},{self.alpha}) "
                f"from base ({self.base.params.n},{self.base.params.k},"
                f"{self.base.params.d}), depth={self.depth})")


def shorten(code, delta: int) -> ShortenedCode:
    """Retire delta more trailing nodes of a shortened code, or of a star
    family (a code of depth 0)."""
    return ShortenedCode(getattr(code, "base", code), getattr(code, "depth", 0) + delta)


def naive_bandwidth(k: int, d: int) -> int:
    return d * (2 * k - 5)


def cascade_bandwidth(k: int, d: int) -> int:
    return (d - 1) * (2 * k - 5) + (k - 2)


def subspace_bandwidth(k: int) -> int:
    return 3 * (k - 2) ** 2


def cutset_two_failure_bandwidth(k: int) -> Fraction:
    """The information-flow floor 2*d*alpha/(d+2-k) at d = 3(k-1)/2."""
    d = Fraction(3 * (k - 1), 2)
    alpha = Fraction((k - 1) * (k - 2), 2)
    return 2 * d * alpha / (d + 2 - k)


def subspace_optimality_gap(k: int) -> Fraction:
    """Exact distance of the subspace strategy from the cut-set floor."""
    return subspace_bandwidth(k) - cutset_two_failure_bandwidth(k)


@dataclass(frozen=True)
class CentralRepairPlan:
    """What each helper sends and how the agent recombines it."""

    failed: tuple
    helpers: tuple
    strategy: str
    per_helper_sent: tuple
    total_bandwidth: int


@dataclass(frozen=True)
class CentralRepairProgram:
    """Matrix form of a two-failure repair, reusable across files.

    Every matrix is a list of int rows.  send_matrices[i] maps helper i's
    stored values to what it transmits; recover_first / recover_second
    map the concatenated transmissions to
    the two failed nodes' contents.  In the cascade strategy the second
    recovery additionally consumes the first node's rebuilt content
    (appended after the received symbols).
    """

    plan: CentralRepairPlan
    send_matrices: tuple
    recover_first: list[list[int]]
    recover_second: list[list[int]]
    second_uses_first: bool


def central_repair_program(stars: StarFamily, f: int, g: int,
                           helpers: list[int], strategy: str) -> CentralRepairProgram:
    """Build the transmission and recovery matrices for one failure pair."""
    p = stars.params
    if p.flavor != SYMMETRIC or p.t != 3:
        raise UsageError("two-failure centralized repair is defined for "
                         "t = 3 symmetric codes")
    if strategy not in STRATEGIES:
        raise UsageError(f"unknown strategy {strategy!r}")
    if f == g:
        raise UsageError("the two failed nodes must differ")
    helpers = list(helpers)
    if (len(helpers) != p.d or len(set(helpers)) != p.d
            or f in helpers or g in helpers):
        raise UsageError(f"need {p.d} distinct helpers disjoint from the failed pair")
    spec = stars.spec
    k = p.k
    full_pair = 2 * k - 5

    sent_rows: list[list[int]] = []      # tensors the agent receives, in order
    send_matrices = []
    per_helper_sent = []

    if strategy in (NAIVE, CASCADE):
        senders = helpers if strategy == NAIVE else helpers[:-1]
        for h in senders:
            candidates = (stars.message_tensor_rows(h, f)
                          + stars.message_tensor_rows(h, g))
            offer = Echelon(spec, p.M).offer
            kept = [row for row in candidates if offer(row)]
            if len(kept) != full_pair:
                raise AxiomViolationError(
                    "pair-message-dimension", subset=(h,), failed_node=f,
                    message=f"helper {h} pair restriction has dimension "
                            f"{len(kept)}, expected {full_pair}")
            sent_rows.extend(kept)
            send_matrices.append(_values_matrix(stars, h, kept))
            per_helper_sent.append((h, len(kept)))
        if strategy == CASCADE:
            h = helpers[-1]
            kept = stars.message_tensor_rows(h, f)
            sent_rows.extend(kept)
            send_matrices.append(help_matrix(stars, h, f))
            per_helper_sent.append((h, len(kept)))
    else:
        target_rank = subspace_bandwidth(k)
        echelon = Echelon(spec, p.M)
        for h in helpers:
            kept = []
            if echelon.rank < target_rank:
                for row in (stars.message_tensor_rows(h, f)
                            + stars.message_tensor_rows(h, g)):
                    if echelon.offer(row):
                        kept.append(row)
                        if echelon.rank == target_rank:
                            break
            sent_rows.extend(kept)
            send_matrices.append(_values_matrix(stars, h, kept))
            per_helper_sent.append((h, len(kept)))
        if echelon.rank != target_rank:
            raise AxiomViolationError(
                "pair-repair-span", subset=sorted(helpers), failed_node=f,
                message=f"pooled helper tensors cover {echelon.rank} of the "
                        f"{target_rank}-dimensional pair target")

    solver = SpanSolver(spec, sent_rows, p.M)
    recover_first = _recovery_matrix(stars, solver, f)
    if strategy == CASCADE:
        # the rebuilt first node acts as one more helper for the second
        extended = sent_rows + stars.node_tensor_rows(f)
        solver2 = SpanSolver(spec, extended, p.M)
        recover_second = _recovery_matrix(stars, solver2, g)
        second_uses_first = True
    else:
        recover_second = _recovery_matrix(stars, solver, g)
        second_uses_first = False

    plan = CentralRepairPlan(
        failed=(f, g), helpers=tuple(helpers), strategy=strategy,
        per_helper_sent=tuple(per_helper_sent),
        total_bandwidth=sum(c for _, c in per_helper_sent))
    return CentralRepairProgram(plan, tuple(send_matrices),
                                recover_first, recover_second, second_uses_first)


def _values_matrix(stars: StarFamily, h: int, tensor_rows: list[list[int]]) -> list[list[int]]:
    """Coefficients that turn node h's stored values into the given
    tensors' evaluations (each tensor lies in the node subspace)."""
    solver = SpanSolver(stars.spec, stars.node_tensor_rows(h), stars.params.M)
    rows = solver.coefficient_rows(tensor_rows)
    if rows is None:
        raise AxiomViolationError(
            "message-containment", subset=(h,),
            message=f"helper {h} cannot evaluate a requested tensor")
    return rows


def _recovery_matrix(stars, solver, target_node) -> list[list[int]]:
    rows = solver.coefficient_rows(stars.node_tensor_rows(target_node))
    if rows is None:
        raise AxiomViolationError("pair-repair-span", failed_node=target_node,
                                  message="agent pool misses the target")
    return rows


def central_repair_two(file: FileTensor, stars: StarFamily, f: int, g: int,
                       helpers: list[int], strategy: str = SUBSPACE):
    """Repair nodes f and g at once through a central agent, with the
    matrices the store applies.

    Helpers compute transmissions from their own stored values only.
    Returns (content_f, content_g, plan); plan.total_bandwidth counts
    the symbols actually sent to the agent.
    """
    sends, recover = ShortenedCode(stars, 0).repair_program([f, g], helpers, strategy)
    received: list[int] = []
    for h, S in sends:
        received.extend(matvec(stars.spec, S, node_content(file, stars, h).values))
    values_f, values_g = (matvec(stars.spec, R, received) for R in recover)
    plan = central_repair_program(stars, f, g, helpers, strategy).plan
    return NodeContent(f, values_f), NodeContent(g, values_g), plan
