"""Command-line front end.

    atrahasis gen      make and verify a code-spec file
    atrahasis put      store a file onto a cluster
    atrahasis get      read the file back from any k live nodes
    atrahasis fail     inject a node failure
    atrahasis repair   regenerate one failed node
    atrahasis repair2  regenerate two failed nodes through a central agent
    atrahasis verify   re-run the exhaustive axiom check on a spec file
    atrahasis sweep    witness the repair-span determinant for small cases
    atrahasis shorten  derive a shortened spec file

Exit codes: 0 success, 1 reported failure (e.g. inconclusive sweep),
2 usage, 3 infeasible parameters, 4 axiom violation, 5 not enough nodes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import specfile
from .code import (EXTERIOR, SYMMETRIC, StarFamily, derive_params, rs_patterns,
                   rs_stars_t2, verify_axioms)
from .errors import (AtrahasisError, AxiomViolationError,
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
    if text is None or text == "auto":
        return None
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise UsageError(f"cannot parse node list {text!r}")


def _parse_pattern(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise UsageError(f"cannot parse exponent pattern {text!r}")


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _given_family(args, want) -> StarFamily:
    """The family of --fixture or --source spec-file.  Each of n, k, d,
    --field and --flavor that was given must match it; one left out
    follows it."""
    from .fixtures import load_fixture

    if args.fixture:
        family, name = load_fixture(args.fixture), f"fixture {args.fixture}"
    else:
        if not args.spec_file:
            raise UsageError("--source spec-file needs --spec-file")
        code, _ = specfile.read_spec_file(args.spec_file)
        if code.depth:
            raise UsageError("cannot regenerate from a shortened spec")
        family, name = code.base, args.spec_file
    p = family.params
    have = {"n": p.n, "k": p.k, "d": p.d, "field": family.spec, "flavor": p.flavor}
    asked = dict(zip("nkd", want), flavor=args.flavor,
                 field=None if args.field is None else parse_field(args.field))
    for key, value in asked.items():
        if value is not None and value != have[key]:
            raise UsageError(f"{name} has {key}={have[key]}, asked for {value}")
    return family


def _build_family(args, triple=None) -> StarFamily:
    from .search import SearchConfig, grow_pool

    if args.fixture or args.source == "spec-file":
        return _given_family(args, triple or (args.n, args.k, args.d))
    n, k, d = triple or (args.n, args.k, args.d)
    if n is None or k is None or d is None:
        raise UsageError("gen needs --n, --k and --d (or --fixture)")
    spec = parse_field("gf16" if args.field is None else args.field)
    flavor = args.flavor or SYMMETRIC
    params = _derive_or_suggest(n, k, d, flavor)
    if args.source == "rs":
        if params.t != 2:
            raise InfeasibleParametersError(
                f"the Reed-Solomon source covers t = 2 (d = 2(k-1)); "
                f"(k,d)=({k},{d}) has t={params.t}")
        return rs_stars_t2(spec, n, k, flavor)
    # source == "search"
    x_pattern = _parse_pattern(args.x_pattern) if args.x_pattern else None
    y_pattern = _parse_pattern(args.y_pattern) if args.y_pattern else None
    if x_pattern is None or y_pattern is None:
        if params.t != 2:
            raise UsageError("--source search needs --x-pattern/--y-pattern "
                             "for t > 2")
        rx, ry = rs_patterns(k, flavor)
        x_pattern = x_pattern or rx
        if y_pattern is None:
            y_pattern = ry
    result = grow_pool(SearchConfig(spec, params, x_pattern, y_pattern), n)
    if not result.ok or len(result.pool) < n:
        raise InfeasibleParametersError(
            f"search found a pool of {len(result.pool)} points over {spec}, "
            f"need {n}; try a larger field or different patterns")
    return result.family


def _derive_or_suggest(n, k, d, flavor):
    try:
        return derive_params(n, k, d, flavor)
    except InfeasibleParametersError as exc:
        r = d - k + 1
        if n - 1 >= d >= k >= 2 and d % r != 0:
            delta = -(-d // r) * r - d
            raise InfeasibleParametersError(
                f"{exc}; try --shorten-from {n + delta},{k + delta},{d + delta}")
        raise


def cmd_gen(args) -> int:
    shorten_depth = 0
    if args.shorten_from:
        try:
            base = tuple(int(x) for x in args.shorten_from.split(","))
            base_n, base_k, base_d = base
        except ValueError:
            raise UsageError(f"cannot parse --shorten-from {args.shorten_from!r}")
        if args.n is None or args.k is None or args.d is None:
            raise UsageError("--shorten-from needs the target --n, --k and --d")
        delta = base_k - args.k
        if delta < 1 or base_n - delta != args.n or base_d - delta != args.d:
            raise UsageError(
                f"--shorten-from {args.shorten_from} does not shorten onto "
                f"({args.n},{args.k},{args.d})")
        family = _build_family(args, triple=base)
        shorten_depth = delta
    else:
        family = _build_family(args)
    report = verify_axioms(family)
    if not report.ok:
        raise AxiomViolationError(report.axiom, report.subset, report.failed_node,
                                  message=report.describe())
    if shorten_depth:
        shorten(family, shorten_depth)  # validates the constraint system
    doc = specfile.write_spec_file(args.out, family, shorten_depth)
    _emit(args, {"spec": args.out, "params": doc["params"],
                 "shorten": doc.get("shorten"), "verified": True},
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atrahasis",
        description="minimum-storage-regenerating codes: generation, "
                    "verification and a storage-cluster simulator")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized operations (sweep)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="make and verify a code-spec file")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--flavor", choices=(SYMMETRIC, EXTERIOR),
                   help="default: the family's, else symmetric")
    p.add_argument("--field", help="default: the family's, else gf16")
    p.add_argument("--source", choices=("rs", "search", "spec-file"),
                   default="search")
    p.add_argument("--fixture")
    p.add_argument("--x-pattern", help="comma-separated exponents")
    p.add_argument("--y-pattern", help="comma-separated exponents")
    p.add_argument("--spec-file", help="input spec for --source spec-file")
    p.add_argument("--shorten-from",
                   help="n,k,d of the primitive base to shorten onto the target")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="re-run the exhaustive axiom check")
    p.add_argument("spec")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("put", help="store a file onto a cluster")
    p.add_argument("file")
    p.add_argument("--spec", required=True)
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_put)

    p = sub.add_parser("get", help="read the file back")
    p.add_argument("out")
    p.add_argument("--store", required=True)
    p.add_argument("--nodes", help="comma-separated node indices (default: auto)")
    p.set_defaults(func=cmd_get)

    p = sub.add_parser("fail", help="inject a node failure")
    p.add_argument("node", type=int)
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_fail)

    p = sub.add_parser("repair", help="regenerate one failed node")
    p.add_argument("node", type=int)
    p.add_argument("--store", required=True)
    p.add_argument("--helpers", default="auto")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("repair2", help="regenerate two failed nodes")
    p.add_argument("first", type=int)
    p.add_argument("second", type=int)
    p.add_argument("--store", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default=SUBSPACE)
    p.add_argument("--helpers", default="auto")
    p.set_defaults(func=cmd_repair2)

    p = sub.add_parser("status", help="print cluster status and ledger")
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("sweep", help="determinant witness over small cases")
    p.add_argument("--alpha-cap", type=int, required=True)
    p.add_argument("--field", default="gf127")
    p.add_argument("--max-redraws", type=int, default=10)
    p.add_argument("--out", help="write the report table to this path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("shorten", help="derive a shortened spec file")
    p.add_argument("spec")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_shorten)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AtrahasisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
