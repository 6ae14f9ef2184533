"""Code transforms: shortening, and centralized repair of two
simultaneous failures.

Shortening retires trailing nodes by constraining their contents to
zero.  A node holds the file evaluated at its basis tensors, so the
transfer, the decode and the encoder (built on first read) are one
solve, ShortenedCode._solve: target tensors restated over the pinned
nodes' (worth zero) and the sources', keeping the sources' columns.
Repair drops the columns the retired nodes' zero help messages would
feed.  Depth delta turns an (n, k, d, alpha) instance into (n-delta,
k-delta, d-delta, alpha), keeping d-k+1 and beta.  A ShortenedCode is the
one code type of the store and the library's one scalar code API: every
code-spec file parses to one, and a plain star family is its depth 0.  It
builds every matrix the store applies (the transfer from any k nodes to
others, and the regeneration of one or two failed nodes), and its scalar
encode, node_content, download, help_message and repair apply the same
matrices to lists of ints; a file is the list of its base coordinates.
Values from outside are checked once, where these methods take them in.

The store keeps a file in the systematic basis: nodes 0..k-1 hold the
user symbols u unchanged (Rashmi, Shah, Kumar, IEEE Trans. IT 2011), and
any k nodes determine the rest.  So put and get each apply one
transfer_matrix, the values of some nodes as a function of k others: put
the transfer from nodes 0..k-1 to the parity nodes, get the transfer
from any other k nodes to nodes 0..k-1 or, from nodes 0..k-1, nothing.
The repair programs are the same in any basis.  The scalar API keeps
the plain basis, in which encode is the identity at depth 0.

One builder, ShortenedCode.repair_program, rebuilds one failed node, or
two at a central agent, on any t and either flavor: the d helpers'
messages toward each failed node already span it.  A pair is repaired
under one of three strategies: every helper sends the independent part
of its messages toward both nodes (naive); the last one sends only the
first node's message and the rebuilt node helps the second (cascade); or
helpers send only what is new to the agent (subspace).  On the t = 3
fixture that is 30 / 28 / 27 symbols; subspace_bandwidth is the closed
form of the last.  Under subspace and for one failure a program is one
solve: one SpanSolver over every offered message row picks the sends
(the rows it keeps) and gives the recovery from the same elimination.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .code import HelpMessage, NodeContent, StarFamily, help_matrix, send_matrix
from .errors import AxiomViolationError, UsageError
from .linalg import Echelon, SpanSolver, matvec


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

    The user symbols sit at free_cols, the columns no pivot of the pinned
    nodes' tensor rows.  Encoding is one matrix, encoder (M_base x M),
    built on first read; at depth 0 it is None: the file is the user
    symbols.
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
        constraint = Echelon(self.spec, p.M)
        for row in self._rows(self.pinned):
            constraint.offer(row)
        if constraint.rank != depth * p.alpha:
            raise AxiomViolationError(
                "shorten-constraint", subset=self.pinned,
                message=f"pinning {depth} nodes cut {constraint.rank} "
                        f"dimensions, expected {depth * p.alpha}")
        pivots = set(constraint.pivots)
        self.free_cols = [c for c in range(p.M) if c not in pivots]

    @cached_property
    def encoder(self) -> list[list[int]] | None:
        """Every unit tensor restated over the free ones: row c gives the
        file's coordinate c as a combination of the user symbols."""
        return self._solve(None, self._units(range(self.base.params.M))) if self.depth else None

    def encode(self, raw) -> list[int]:
        """Map (k-depth)*alpha user symbols, each checked to be a canonical
        element, to the base file's coordinates, with the pinned node
        contents all zero.  At depth 0 the file is the user symbols."""
        values = [self.spec.check_value(v) for v in raw]
        if len(values) != self.M:
            raise UsageError(f"encode needs {self.M} symbols, got {len(values)}")
        return values if self.encoder is None else matvec(self.spec, self.encoder, values)

    def decode(self, file: list[int]) -> list[int]:
        """Read the user symbols back off the free coordinates."""
        return [file[c] for c in self.free_cols]

    def node_content(self, file: list[int], h: int) -> NodeContent:
        """Evaluate the file at live node h's basis tensors."""
        self._check_live(h)
        return NodeContent(h, matvec(self.spec, self.base.node_tensor_rows(h), file))

    def transfer_matrix(self, sources, targets) -> list[list[int]]:
        """The values of k distinct live source nodes -> the values of the
        given live target nodes, node by node, alpha rows each."""
        targets = list(targets)
        self._check_live(*targets)
        return self._solve(sources, self._rows(targets))

    def decode_matrix(self, nodes: list[int]) -> list[list[int]]:
        """The stacked values of k distinct live nodes -> the M user
        symbols, the file's coordinates at the free columns."""
        return self._solve(nodes, self._units(self.free_cols))

    def _solve(self, sources, targets) -> list[list[int]]:
        """Each target tensor row restated over the pinned nodes' rows,
        then the sources' rows: those of k distinct live nodes, or with
        sources None the unit rows at the free columns.  The pinned
        nodes' values are zero, so only the last M coefficients, one per
        source value, are kept."""
        known = list(self.pinned)
        if sources is None:
            rows = self._units(self.free_cols)
        else:
            sources = list(sources)
            if len(sources) != self.k or len(set(sources)) != self.k:
                raise UsageError(f"need exactly {self.k} distinct source nodes")
            self._check_live(*sources)
            rows, known = self._rows(sources), sources + known
        width = self.base.params.M
        solver = SpanSolver(self.spec, self._rows(self.pinned) + rows, width)
        if solver.rank < width:
            raise AxiomViolationError("download-span", subset=sorted(known))
        return [row[-self.M:] for row in solver.coefficient_rows(targets)]

    def _rows(self, nodes) -> list[list[int]]:
        """The base tensor rows of the given nodes, stacked."""
        return [row for h in nodes for row in self.base.node_tensor_rows(h)]

    def _units(self, columns) -> list[list[int]]:
        """The unit rows of the file's coordinates at the given columns."""
        width = self.base.params.M
        return [[int(c == j) for j in range(width)] for c in columns]

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
        cascade the last helper only toward the first).  Under subspace
        and for one failure, one SpanSolver over all the offered rows does
        the whole program in one elimination: a row it keeps, independent
        of the rows before it, is sent, and the recovery is read off the
        same echelon (a row not kept gets no coefficient).  Under naive and
        cascade with two failures each node keeps, in its own echelon,
        what is independent of its own rows, sends it all, and the solver
        runs over what is sent.  The pinned nodes go first: they store
        zeros, so their rows seed the generators and are never sent.
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
        shared = strategy == SUBSPACE or len(failed) == 1
        generators, owners = [], []
        for h in list(self.pinned) + helpers:
            toward = failed[:1] if strategy == CASCADE and h == helpers[-1] else failed
            rows = [row for f in toward for row in base.message_tensor_rows(h, f)]
            if not shared:
                echelon = Echelon(spec, width)
                rows = [row for row in rows if echelon.offer(row)]
            generators.extend(rows)
            owners.extend([h] * len(rows))
        solver = SpanSolver(spec, generators, width)
        # the indices of the generators sent: of the helpers', under a
        # shared echelon only those the solver kept
        sent = [i for i, h in enumerate(owners)
                if h not in self.pinned and (solver.kept[i] or not shared)]
        sends = []
        for h in helpers:
            rows = [generators[i] for i in sent if owners[i] == h]
            if rows:
                sends.append((h, send_matrix(base, h, rows)))
        solvers = [solver] * len(failed)
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
        return sends, [[[row[i] for i in sent] for row in R] for R in recover]

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


def subspace_bandwidth(k: int) -> int:
    return 3 * (k - 2) ** 2


class CentralRepairPlan(namedtuple("CentralRepairPlan",
                                   "per_helper_sent total_bandwidth")):
    """How many symbols each helper sends, as (helper, count) pairs, and
    their total."""

    __slots__ = ()


class CentralRepairProgram(namedtuple("CentralRepairProgram", "plan send_matrices "
                                      "recover_first recover_second")):
    """Matrix form of a two-failure repair, reusable across files: every
    matrix is a list of int rows.  send_matrices[i] maps helper i's stored
    values to what it transmits (no rows if it sends nothing);
    recover_first / recover_second map the concatenated transmissions to
    the two failed nodes' contents."""

    __slots__ = ()


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

