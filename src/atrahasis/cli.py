"""Command-line front end.

    atrahasis gen      make and verify a primitive code-spec file
    atrahasis put      store a file onto a cluster
    atrahasis get      read the file back from any k live nodes
    atrahasis fail     inject a node failure
    atrahasis repair   regenerate one failed node
    atrahasis repair2  regenerate two failed nodes through a central agent
    atrahasis status   print the cluster's node states and ledger
    atrahasis verify   re-run the exhaustive axiom check on a spec file
    atrahasis sweep    witness the repair-span determinant for small cases
    atrahasis shorten  derive a shortened spec file

gen builds only primitive codes, where t = d/(d-k+1) is an integer, from
a fixture, Reed-Solomon stars or a pattern search; every other (n, k, d)
is the shorten of a primitive spec, which gen's error names.

One table, COMMANDS, holds every command's handler, typed positionals
and options (flag, help, type, default, required, choices); parse_args
reads it, and --help prints it.  Option names match exactly, with no
abbreviation; a value follows '=' or is the next argument, even one
that starts with '-'; the global --json and --seed may come before or
after the command.  The parser is a few dozen lines rather than
argparse, which with gettext and locale cost each command about 6 ms of
its start.

Exit codes: 0 success (and --help), 1 reported failure (e.g. inconclusive
sweep), 2 usage, 3 infeasible parameters, 4 axiom violation, 5 not enough
nodes.  Every error, a parse error too, is one `error:` line on stderr.

main(argv) runs one command and returns its exit code; tests and
benchmarks call it in-process.  run is the process entry (`python -m
atrahasis` and the installed `atrahasis` script): it calls main, flushes
stdout and stderr, and ends the process with os._exit, skipping the
interpreter's teardown (module cleanup, gc, atexit), work that would
start only after the command's output is complete.  A stdout that
cannot take the output (a closed pipe) is one `error:` line and exit 1.
Under a trace or profile hook, as coverage, debuggers and cProfile set,
run ends with sys.exit, so that they still report at exit.
"""

from __future__ import annotations

import json
import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import specfile
from .code import (EXTERIOR, SYMMETRIC, StarFamily, derive_params, rs_patterns,
                   rs_stars_t2, verify_axioms)
from .errors import (AtrahasisError, AxiomViolationError, FieldTooSmallError,
                     InfeasibleParametersError, InsufficientNodesError,
                     UsageError)
from .fields import FieldSpec, binary_field, is_prime, prime_field
from .transforms import STRATEGIES, SUBSPACE, shorten

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_AXIOM = 4
EXIT_NODES = 5
# an error's exit code is that of the first entry it is an instance of;
# CorruptDataError is a UsageError, FieldTooSmallError an
# InfeasibleParametersError; a path that names the wrong kind of file or
# may not be opened is a usage error, any other OSError a failure
EXIT_CODES = (
    (AxiomViolationError, EXIT_AXIOM),
    (InsufficientNodesError, EXIT_NODES),
    (InfeasibleParametersError, EXIT_INFEASIBLE),
    ((UsageError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
      PermissionError), EXIT_USAGE),
    ((AtrahasisError, OSError), EXIT_FAILURE),
)


def parse_field(text: str) -> FieldSpec:
    """gf<order>[/0x<poly>]: powers of two are binary fields (optional
    explicit reduction polynomial), anything else must be prime."""
    body = text.lower()
    poly = None
    if "/" in body:
        body, poly_text = body.split("/", 1)
        try:
            poly = int(poly_text, 16)
        except ValueError:
            raise UsageError(f"cannot parse reduction polynomial in {text!r}")
    if not body.startswith("gf"):
        raise UsageError(f"cannot parse field {text!r} (expected gf<order>)")
    try:
        order = int(body[2:])
    except ValueError:
        raise UsageError(f"cannot parse field order in {text!r}")
    if order >= 2 and order & (order - 1) == 0:
        return binary_field(order.bit_length() - 1, poly)
    if poly is not None:
        raise UsageError("reduction polynomial only applies to binary fields")
    if is_prime(order):
        return prime_field(order)
    raise UsageError(f"field order {order} is neither a power of 2 nor prime")


def _parse_nodes(text: str) -> list[int] | None:
    if text == "auto":
        return None
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise UsageError(f"cannot parse node list {text!r}")


def _parse_pattern(text: str) -> tuple:
    try:
        pattern = tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise UsageError(f"cannot parse exponent pattern {text!r}")
    if not pattern:
        raise UsageError(f"empty exponent pattern {text!r}")
    return pattern


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _given_family(args) -> StarFamily:
    """The family of --fixture.  Each of n, k, d, --field and --flavor
    that was given must match it; one left out follows it."""
    from .fixtures import load_fixture

    family = load_fixture(args.fixture)
    p = family.params
    have = {"n": p.n, "k": p.k, "d": p.d, "field": family.spec, "flavor": p.flavor}
    asked = dict(n=args.n, k=args.k, d=args.d, flavor=args.flavor,
                 field=None if args.field is None else parse_field(args.field))
    for key, value in asked.items():
        if value is not None and value != have[key]:
            raise UsageError(f"fixture {args.fixture} has {key}={have[key]}, "
                             f"asked for {value}")
    return family


def _build_family(args) -> StarFamily:
    """The primitive family of --fixture, --source rs or --source search.
    Only the search reads the exponent patterns, and a fixture is its
    own source."""
    from .search import SearchConfig, grow_pool

    if args.fixture and args.source:
        raise UsageError(f"--fixture and --source {args.source} are two sources; give one")
    source = "--fixture" if args.fixture else f"--source {args.source or 'search'}"
    if source != "--source search" and (args.x_pattern, args.y_pattern) != (None, None):
        raise UsageError(f"{source} reads no --x-pattern or --y-pattern")
    if args.fixture:
        return _given_family(args)
    n, k, d = args.n, args.k, args.d
    if n is None or k is None or d is None:
        raise UsageError("gen needs --n, --k and --d (or --fixture)")
    spec = parse_field("gf16" if args.field is None else args.field)
    flavor = args.flavor or SYMMETRIC
    params = derive_params(n, k, d, flavor)
    if args.source == "rs":
        if params.t != 2:
            raise InfeasibleParametersError(
                f"the Reed-Solomon source covers t = 2 (d = 2(k-1)); "
                f"(k,d)=({k},{d}) has t={params.t}")
        return rs_stars_t2(spec, n, k, flavor)
    # source == "search": the points are field elements
    if n > spec.order:
        raise FieldTooSmallError(f"{spec} has only {spec.order} points, need {n}")
    x_pattern = None if args.x_pattern is None else _parse_pattern(args.x_pattern)
    y_pattern = None if args.y_pattern is None else _parse_pattern(args.y_pattern)
    if x_pattern is None or y_pattern is None:
        if params.t != 2:
            raise UsageError("--source search needs --x-pattern/--y-pattern "
                             "for t > 2")
        rx, ry = rs_patterns(k, flavor)
        x_pattern = rx if x_pattern is None else x_pattern
        y_pattern = ry if y_pattern is None else y_pattern
    result = grow_pool(SearchConfig(spec, params, x_pattern, y_pattern), n)
    if not result.ok or len(result.pool) < n:
        raise InfeasibleParametersError(
            f"search found a pool of {len(result.pool)} points over {spec}, "
            f"need {n}; try a larger field or different patterns")
    return result.family


def cmd_gen(args) -> int:
    family = _build_family(args)
    verify_axioms(family).check()
    doc = specfile.write_spec_file(args.out, family)
    _emit(args, {"spec": args.out, "params": doc["params"], "verified": True},
          f"wrote verified spec to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    code, _ = specfile.read_spec_file(args.spec)
    report = verify_axioms(code.base)
    if report.ok:
        _emit(args, {"ok": True, "subsets_checked": report.subsets_checked},
              report.describe())
        return EXIT_OK
    _emit(args, {"ok": False, "axiom": report.axiom, "subset": report.subset,
                 "failed_node": report.failed_node}, report.describe())
    return EXIT_AXIOM


def _cluster(args):
    """The Cluster at --store, through which every store command goes.  It
    is imported here, so the algebra commands never load cluster or bulk."""
    from .cluster import Cluster
    return Cluster(args.store)


def cmd_put(args) -> int:
    info = _cluster(args).put(specfile.read_json(args.spec), args.file)
    _emit(args, info,
          f"stored {args.file}: {info['chunk_count']} chunks on {info['nodes']} nodes")
    return EXIT_OK


def cmd_get(args) -> int:
    info = _cluster(args).get(args.out, _parse_nodes(args.nodes))
    _emit(args, info, f"recovered {info['bytes']} bytes from nodes {info['nodes']}")
    return EXIT_OK


def cmd_fail(args) -> int:
    info = _cluster(args).fail(args.node)
    _emit(args, info, f"node {args.node} failed")
    return EXIT_OK


def cmd_repair(args) -> int:
    info = _cluster(args).repair(args.node, _parse_nodes(args.helpers))
    _emit(args, info,
          f"repaired node {args.node} from {info['helpers']} "
          f"({info['symbols']} symbols)")
    return EXIT_OK


def cmd_repair2(args) -> int:
    info = _cluster(args).repair2(args.first, args.second, args.strategy,
                                  _parse_nodes(args.helpers))
    _emit(args, info,
          f"repaired nodes {info['repaired']} via {args.strategy} "
          f"({info['symbols']} symbols)")
    return EXIT_OK


def cmd_status(args) -> int:
    info = _cluster(args).status()
    _emit(args, info, json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .search import render_report_table, sweep_small_cases

    if args.alpha_cap < 1:
        # no case has alpha < 1: an empty sweep would witness nothing
        raise UsageError(f"--alpha-cap must be at least 1, got {args.alpha_cap}")
    if args.max_redraws < 1:
        # with no draw, every case would be reported inconclusive untested
        raise UsageError(f"--max-redraws must be at least 1, got {args.max_redraws}")
    field = parse_field(args.field)
    reports = sweep_small_cases(args.alpha_cap, field, seed=args.seed,
                                max_redraws=args.max_redraws)
    table = render_report_table(reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
    ok = all(r.verdict == "nonzero-witnessed" for r in reports)
    _emit(args, {"cases": len(reports), "all_witnessed": ok,
                 "table": None if args.out else table},
          table + ("all cases witnessed" if ok else "INCONCLUSIVE cases present"))
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_shorten(args) -> int:
    if args.delta < 1:
        # a zero or negative delta would rewrite the spec unshortened, or
        # undo an earlier shortening
        raise UsageError(f"--delta must be at least 1, got {args.delta}")
    code, _ = specfile.read_spec_file(args.spec)
    shortened = shorten(code, args.delta)
    doc = specfile.write_spec_file(args.out, shortened.base, shortened.depth)
    _emit(args, {"spec": args.out,
                 "effective": {"n": shortened.n, "k": shortened.k,
                               "d": shortened.d, "alpha": shortened.alpha}},
          f"wrote shortened spec ({shortened.n},{shortened.k},{shortened.d},"
          f"{shortened.alpha}) to {args.out}")
    return EXIT_OK


class Option(namedtuple("Option", "flag help kind default required choices",
                        defaults=(str, None, False, None))):
    """One option of the command table, --flag VALUE.  Kind bool is a
    flag that takes no value and sets True."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


# one command of the table: its handler, help line, positionals as
# (dest, kind) pairs, and Options
Command = namedtuple("Command", "handler help positionals options")


GLOBAL_OPTIONS = (
    Option("--json", "machine-readable output", bool, False),
    Option("--seed", "seed for randomized operations (sweep)", int, 0),
)

COMMANDS = {
    "gen": Command(cmd_gen, "make and verify a primitive code-spec file", (), (
        Option("--n", "number of nodes", int),
        Option("--k", "nodes that recover the file", int),
        Option("--d", "helpers that repair a node", int),
        Option("--flavor", "default: the family's, else symmetric",
               choices=(SYMMETRIC, EXTERIOR)),
        Option("--field", "gf<order>[/0x<poly>]; default: the family's, else gf16"),
        Option("--source", "where the star vectors come from; default: search, "
               "unless --fixture", choices=("rs", "search")),
        Option("--fixture", "a shipped family (atrahasis-956)"),
        Option("--x-pattern", "comma-separated exponents"),
        Option("--y-pattern", "comma-separated exponents"),
        Option("--out", "spec file to write", required=True),
    )),
    "verify": Command(cmd_verify, "re-run the exhaustive axiom check",
                      (("spec", str),), ()),
    "put": Command(cmd_put, "store a file onto a cluster", (("file", str),), (
        Option("--spec", "code-spec file", required=True),
        Option("--store", "cluster directory", required=True),
    )),
    "get": Command(cmd_get, "read the file back", (("out", str),), (
        Option("--store", "cluster directory", required=True),
        Option("--nodes", "comma-separated node indices", default="auto"),
    )),
    "fail": Command(cmd_fail, "inject a node failure", (("node", int),), (
        Option("--store", "cluster directory", required=True),
    )),
    "repair": Command(cmd_repair, "regenerate one failed node", (("node", int),), (
        Option("--store", "cluster directory", required=True),
        Option("--helpers", "comma-separated helper nodes", default="auto"),
    )),
    "repair2": Command(cmd_repair2, "regenerate two failed nodes",
                       (("first", int), ("second", int)), (
        Option("--store", "cluster directory", required=True),
        Option("--strategy", "central repair strategy", default=SUBSPACE,
               choices=STRATEGIES),
        Option("--helpers", "comma-separated helper nodes", default="auto"),
    )),
    "status": Command(cmd_status, "print cluster status and ledger", (), (
        Option("--store", "cluster directory", required=True),
    )),
    "sweep": Command(cmd_sweep, "determinant witness over small cases", (), (
        Option("--alpha-cap", "largest alpha swept", int, required=True),
        Option("--field", "field of the random draws", default="gf127"),
        Option("--max-redraws", "draws per case before it is inconclusive", int, 10),
        Option("--out", "write the report table to this path"),
    )),
    "shorten": Command(cmd_shorten, "derive a shortened spec file", (("spec", str),), (
        Option("--delta", "how many times to shorten", int, required=True),
        Option("--out", "spec file to write", required=True),
    )),
}


def _convert(name: str, kind, choices, text: str):
    if kind is int:
        try:
            value = int(text)
        except ValueError:
            raise UsageError(f"{name} takes an integer, got {text!r}")
    else:
        value = text
    if choices is not None and value not in choices:
        raise UsageError(f"{name} takes one of {', '.join(choices)}, got {text!r}")
    return value


def parse_args(argv: list[str]):
    """(handler, args) for a command line by the command table, or
    (None, usage text) where it asks for -h/--help.  The global options
    may come before or after the command; an option's value follows '='
    or is the next argument, whatever it looks like; only exact option
    names match.  Every error is a UsageError."""
    options = {opt.flag: opt for opt in GLOBAL_OPTIONS}
    values = {opt.dest: opt.default for opt in GLOBAL_OPTIONS}
    command, given = None, []
    rest = iter(argv)
    for arg in rest:
        if arg in ("-h", "--help"):
            return None, _usage(command)
        if arg[:1] != "-" or arg == "-" or arg[1:].isdigit():
            if command is not None:
                given.append(arg)
                continue
            if arg not in COMMANDS:
                raise UsageError(f"unknown command {arg!r} "
                                 f"(one of {', '.join(COMMANDS)})")
            command = arg
            for opt in COMMANDS[arg].options:
                options[opt.flag] = opt
                values[opt.dest] = opt.default
            continue
        flag, eq, value = arg.partition("=")
        opt = options.get(flag)
        if opt is None:
            raise UsageError(f"unknown option {flag}"
                             + (f" for {command}" if command else ""))
        if opt.kind is bool:
            if eq:
                raise UsageError(f"{flag} takes no value")
            values[opt.dest] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None:
                raise UsageError(f"{flag} needs a value")
        values[opt.dest] = _convert(flag, opt.kind, opt.choices, value)
    if command is None:
        raise UsageError("no command given (see atrahasis --help)")
    handler, _, positionals, opts = COMMANDS[command]
    if len(given) > len(positionals):
        raise UsageError(f"{command}: unexpected argument {given[len(positionals)]!r}")
    if len(given) < len(positionals):
        raise UsageError(f"{command} needs {positionals[len(given)][0].upper()}")
    for (dest, kind), text in zip(positionals, given):
        values[dest] = _convert(dest.upper(), kind, None, text)
    missing = [opt.flag for opt in opts if opt.required and values[opt.dest] is None]
    if missing:
        raise UsageError(f"{command} needs {', '.join(missing)}")
    return handler, SimpleNamespace(**values)


def _option_lines(opts, *extra: tuple[str, str]) -> list[str]:
    """One aligned line per option, then the extra (left, text) pairs."""
    rows = []
    for opt in opts:
        left, text = opt.flag, opt.help
        if opt.kind is not bool:
            left += f" {{{','.join(opt.choices)}}}" if opt.choices else f" {opt.dest.upper()}"
        if opt.required:
            text += " (required)"
        elif opt.default is not None and opt.kind is not bool:
            text += f" (default: {opt.default})"
        rows.append((left, text))
    rows += extra
    width = max(len(left) for left, _ in rows)
    return [f"  {left:<{width}}  {text}" for left, text in rows]


def _usage(command: str | None) -> str:
    """The help text of one command, or of atrahasis, from the table."""
    if command is None:
        return "\n".join([
            "usage: atrahasis [--json] [--seed SEED] COMMAND ...", "",
            "minimum-storage-regenerating codes: generation, verification "
            "and a storage-cluster simulator", "", "commands:",
            *(f"  {name:<9} {entry.help}" for name, entry in COMMANDS.items()), "",
            "global options, before or after the command:",
            *_option_lines(GLOBAL_OPTIONS,
                           ("-h, --help", "show this help, or COMMAND --help"))])
    _, text, positionals, opts = COMMANDS[command]
    synopsis = [dest.upper() for dest, _ in positionals]
    synopsis += [f"{opt.flag} {opt.dest.upper()}" if opt.required
                 else f"[{opt.flag} {opt.dest.upper()}]" for opt in opts]
    return "\n".join([f"usage: atrahasis {command} {' '.join(synopsis)}".rstrip(),
                      "", text, "", "options:",
                      *_option_lines(opts, ("--json, --seed SEED", "global options"))])


def _report(exc: BaseException) -> int:
    """Print exc as the one `error:` line -> its exit code by EXIT_CODES."""
    print(f"error: {exc}", file=sys.stderr)
    return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


def main(argv=None) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        if handler is None:
            print(args)
            return EXIT_OK
        return handler(args)
    except (AtrahasisError, OSError) as exc:
        return _report(exc)


def _observed() -> bool:
    """Whether a tool that reports at interpreter exit watches this one: a
    trace or profile hook (coverage, debuggers, cProfile up to 3.11), or
    a sys.monitoring tool (cProfile from 3.12)."""
    monitoring = getattr(sys, "monitoring", None)
    return bool(sys.gettrace() or sys.getprofile()
                or monitoring and any(map(monitoring.get_tool, range(6))))


def run():
    """The atrahasis process: main, then stdout and stderr flushed, then
    os._exit with main's code, which skips the interpreter's teardown
    (module cleanup, gc, atexit).  That loses nothing: every file a
    command writes is closed, and a store's also fsynced and renamed,
    before main returns.  Under a tool that observes the exit it ends
    with sys.exit instead.  An exception main does not handle
    propagates."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        # the reader has gone (BrokenPipeError) or the device failed, and
        # what was left unwritten is lost.  stdout moves to /dev/null, so
        # that no later flush, at teardown either, fails again.  A command
        # that failed keeps its code: a print that failed in main was
        # reported there, and fails here a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if code == EXIT_OK:
            code = _report(exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
