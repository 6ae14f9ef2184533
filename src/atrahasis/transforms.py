"""Code transforms: shortening, and centralized repair of two
simultaneous failures.

Shortening retires trailing nodes by constraining their contents to
zero.  Encoding then parameterizes the constraint nullspace (canonical
echelon pivots, so the map is systematic in the free coordinates);
download and repair drop the columns the retired nodes' zero contents
and zero help messages would feed.  Depth delta turns an
(n, k, d, alpha) instance into (n-delta, k-delta, d-delta, alpha),
keeping d-k+1 and beta.  A ShortenedCode is the one code type of the
store and the library's one scalar code API: every code-spec file
parses to one, and a plain star family is its depth 0.  It builds every
matrix the store applies (put, decode, and the regeneration of one or
two failed nodes), and its scalar encode, node_content, download,
help_message and repair apply the same matrices to lists of ints; a file
is the list of its base coordinates.  Values from outside are checked
once, where these methods take them in.

One builder, ShortenedCode.repair_program, rebuilds one failed node, or
two at a central agent, on any t and either flavor: the d helpers'
messages toward each failed node already span it.  A pair is repaired
under one of three strategies: every helper sends the independent part
of its messages toward both nodes (naive); the last one sends only the
first node's message and the rebuilt node helps the second (cascade); or
helpers send only what is new to the agent (subspace).  On the t = 3 fixture that is 30 / 28 /
27 symbols, the closed forms naive_bandwidth, cascade_bandwidth and
subspace_bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .code import (HelpMessage, NodeContent, StarFamily, download_matrix,
                   help_matrix, send_matrix)
from .errors import AxiomViolationError, UsageError
from .linalg import Echelon, SpanSolver, dot_ints, matvec, nullspace_with_free


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
    as constrained[c] . user symbols.  At depth 0 every coordinate is free
    and nothing is constrained.
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
        if depth == 0:
            return
        constraint_rows = []
        for h in self.pinned:
            constraint_rows.extend(base.node_tensor_rows(h))
        # systematic parameterization of the constraint nullspace: user
        # symbols sit at the free columns and read back directly
        basis, self.free_cols = nullspace_with_free(self.spec, constraint_rows)
        if len(basis) != self.M:
            raise AxiomViolationError(
                "shorten-constraint", subset=self.pinned,
                message=f"pinning {depth} nodes cut {p.M - len(basis)} "
                        f"dimensions, expected {depth * p.alpha}")
        free = set(self.free_cols)
        self.constrained = {c: [v[c] for v in basis]
                            for c in range(p.M) if c not in free}

    def encode(self, raw) -> list[int]:
        """Map (k-depth)*alpha user symbols, each checked to be a canonical
        element, to the base file's coordinates, with the pinned node
        contents all zero.  At depth 0 the file is the user symbols."""
        values = [self.spec.check_value(v) for v in raw]
        if len(values) != self.M:
            raise UsageError(f"encode needs {self.M} symbols, got {len(values)}")
        file = [0] * self.base.params.M
        for c, v in zip(self.free_cols, values):
            file[c] = v
        for c, constraint in self.constrained.items():
            file[c] = dot_ints(self.spec, constraint, values)
        return file

    def decode(self, file: list[int]) -> list[int]:
        """Read the user symbols back off the free coordinates."""
        return [file[c] for c in self.free_cols]

    def node_content(self, file: list[int], h: int) -> NodeContent:
        """Evaluate the file at live node h's basis tensors."""
        self._check_live(h)
        return NodeContent(h, matvec(self.spec, self.base.node_tensor_rows(h), file))

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
        return self.repair_program([f], helpers)[1][0]

    def repair_program(self, failed: list[int], helpers: list[int],
                       strategy: str = SUBSPACE) -> tuple[list, list]:
        """One or two failed nodes rebuilt from d live helpers, as (sends,
        recover): each helper that sends anything with the matrix it
        applies to its values, and per failed node one matrix over all that
        is sent, in order.

        Each node offers its message rows toward the failed nodes (under
        cascade the last helper only toward the first) to an echelon,
        shared under subspace and for one failure, fresh per node
        otherwise; the kept rows are what it sends.  The pinned nodes go
        first: they store zeros, so their rows seed the generators and are
        never sent.
        """
        failed, helpers = list(failed), list(helpers)
        if strategy not in STRATEGIES:
            raise UsageError(f"unknown strategy {strategy!r}")
        counts = (2,) if strategy == CASCADE else (1, 2)
        if len(failed) not in counts:
            raise UsageError(f"{strategy} repair rebuilds {' or '.join(map(str, counts))} "
                             f"failed nodes, got {len(failed)}")
        if len(set(failed)) != len(failed):
            raise UsageError("the failed nodes must differ")
        if (len(helpers) != self.d or len(set(helpers)) != self.d
                or set(helpers) & set(failed)):
            raise UsageError(f"need {self.d} distinct helpers disjoint from "
                             f"the failed nodes {failed}")
        self._check_live(*failed, *helpers)
        base, spec, width = self.base, self.spec, self.base.params.M
        shared = Echelon(spec, width)
        sends, generators, pinned_rows = [], [], 0
        for h in list(self.pinned) + helpers:
            toward = failed[:1] if strategy == CASCADE and h == helpers[-1] else failed
            echelon = (shared if strategy == SUBSPACE or len(failed) == 1
                       else Echelon(spec, width))
            kept = [row for f in toward for row in base.message_tensor_rows(h, f)
                    if echelon.offer(row)]
            if h in self.pinned:
                pinned_rows += len(kept)
            elif kept:
                sends.append((h, send_matrix(base, h, kept)))
            generators.extend(kept)
        solvers = [SpanSolver(spec, generators, width)] * len(failed)
        if strategy == CASCADE:
            # the rebuilt first node acts as one more helper for the second
            solvers[1] = SpanSolver(spec, generators + base.node_tensor_rows(failed[0]),
                                    width)
        recover = [solver.coefficient_rows(base.node_tensor_rows(f))
                   for f, solver in zip(failed, solvers)]
        if None in recover:
            raise AxiomViolationError("repair-span", subset=sorted(helpers),
                                      failed_node=failed[recover.index(None)])
        if strategy == CASCADE:
            # ... and its reads of the first node compose with its recovery
            columns, n = [list(column) for column in zip(*recover[0])], len(generators)
            recover[1] = [[spec.add(a, b) for a, b in zip(row, matvec(spec, columns, row[n:]))]
                          for row in recover[1]]
        return sends, [[row[pinned_rows:] for row in R] for R in recover]

    def download(self, contents: list[NodeContent]) -> list[int]:
        """Recover the user symbols from any k-depth live node contents."""
        if len(contents) != self.k:
            raise UsageError(f"download needs {self.k} node contents")
        D = self.decode_matrix([c.node_index for c in contents])
        return matvec(self.spec, D, self._values(contents, self.alpha, "node content"))

    def help_message(self, content: NodeContent, f: int) -> HelpMessage:
        """What live node `content.node_index` sends toward failed node f."""
        h = content.node_index
        self._check_live(h, f)
        values = self._values([content], self.alpha, "node content")
        return HelpMessage(h, f, matvec(self.spec, help_matrix(self.base, h, f), values))

    def repair(self, messages: list[HelpMessage]) -> NodeContent:
        """Rebuild a failed node from the help messages of d-depth live
        helpers; the retired nodes' messages are zero, so repair_matrix
        drops their columns."""
        if len(messages) != self.d:
            raise UsageError(f"repair needs {self.d} live help messages")
        f = messages[0].failed
        if any(m.failed != f for m in messages):
            raise UsageError("help messages disagree on the failed node")
        received = self._values(messages, self.beta, "help message")
        R = self.repair_matrix(f, [m.helper for m in messages])
        return NodeContent(f, matvec(self.spec, R, received))

    def _values(self, parts, length: int, what: str) -> list[int]:
        """The values of node contents or help messages one after another,
        each part checked to hold `length` canonical elements."""
        values = []
        for part in parts:
            if len(part.values) != length:
                raise UsageError(f"{what} has wrong length")
            values.extend(self.spec.check_value(v) for v in part.values)
        return values

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
    """How many symbols each helper sends, and their total."""

    per_helper_sent: tuple
    total_bandwidth: int


@dataclass(frozen=True)
class CentralRepairProgram:
    """Matrix form of a two-failure repair, reusable across files: every
    matrix is a list of int rows.  send_matrices[i] maps helper i's stored
    values to what it transmits (no rows if it sends nothing);
    recover_first / recover_second map the concatenated transmissions to
    the two failed nodes' contents."""

    plan: CentralRepairPlan
    send_matrices: tuple
    recover_first: list[list[int]]
    recover_second: list[list[int]]


def central_repair_program(stars: StarFamily, f: int, g: int,
                           helpers: list[int], strategy: str) -> CentralRepairProgram:
    """ShortenedCode.repair_program for the pair (f, g) of a plain family,
    with a send matrix and a count for every helper."""
    sends, (first, second) = ShortenedCode(stars, 0).repair_program([f, g], helpers, strategy)
    sent = dict(sends)
    matrices = tuple(sent.get(h, []) for h in helpers)
    per_helper_sent = tuple((h, len(S)) for h, S in zip(helpers, matrices))
    plan = CentralRepairPlan(per_helper_sent, sum(c for _, c in per_helper_sent))
    return CentralRepairProgram(plan, matrices, first, second)


def central_repair_two(file: list[int], stars: StarFamily, f: int, g: int,
                       helpers: list[int], strategy: str = SUBSPACE):
    """Repair nodes f and g at once through a central agent, with the
    matrices the store applies, each helper reading only its own values.
    Returns (content_f, content_g, plan); plan.total_bandwidth counts the
    symbols sent to the agent."""
    program = central_repair_program(stars, f, g, helpers, strategy)
    code, received = ShortenedCode(stars, 0), []
    for h, S in zip(helpers, program.send_matrices):
        received.extend(matvec(stars.spec, S, code.node_content(file, h).values))
    return (NodeContent(f, matvec(stars.spec, program.recover_first, received)),
            NodeContent(g, matvec(stars.spec, program.recover_second, received)),
            program.plan)
