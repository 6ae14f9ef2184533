"""Run one atrahasis command in a fresh interpreter, for the benchmark.

    python3 bench/child.py api '<request json>'
        Call one Cluster method between two speed probes (bench/probe.py);
        print one JSON line with the result, the call's wall time, the
        probe time and the /proc/self/io read/write deltas around the
        call.  The parent takes peak RSS from wait4.
    python3 bench/child.py cli <atrahasis arguments...>
        Run atrahasis.cli.main exactly as the atrahasis command does.

With BENCH_TRACE_OUT set, the layer entry points are wrapped and the
spans, counters, I/O deltas and start-up time (from BENCH_SPAWN_NS, the
parent's monotonic clock just before it started this process) are
written to that path when the command ends.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import probe  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import tracer  # noqa: E402


def proc_io() -> dict | None:
    """rchar/wchar of this process, or None where /proc/self/io is absent."""
    try:
        with open("/proc/self/io") as fh:
            fields = dict(line.split(": ") for line in fh.read().splitlines())
    except OSError:
        return None
    return {"rchar": int(fields["rchar"]), "wchar": int(fields["wchar"])}


def io_delta(before, after) -> dict | None:
    if before is None or after is None:
        return None
    return {key: after[key] - before[key] for key in before}


def call_cluster(req: dict):
    from atrahasis.cluster import Cluster

    cluster = Cluster(req["store"])
    op, args = req["op"], list(req.get("args", []))
    if op == "put":
        spec_path, file_path = args
        with open(spec_path) as fh:
            doc = json.load(fh)
        return cluster.put(doc, file_path)
    return getattr(cluster, op)(*args)


def main() -> int:
    mode = sys.argv[1]
    trace_out = os.environ.get("BENCH_TRACE_OUT")
    spawn_ns = int(os.environ.get("BENCH_SPAWN_NS", "0"))
    if mode == "api":
        import atrahasis.cluster  # noqa: F401  (imports stay outside the timed call)
        run = lambda: call_cluster(json.loads(sys.argv[2]))  # noqa: E731
    elif mode == "cli":
        from atrahasis import cli
        run = lambda: cli.main(sys.argv[2:])  # noqa: E731
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    tr = None
    if trace_out:
        tr = tracer.Tracer()
        tr.install()
    startup_ns = time.monotonic_ns() - spawn_ns
    io0 = proc_io()
    if mode == "cli":
        result = run()
    else:
        result, seconds, probe_s = probe.run_probed(run)
    io = io_delta(io0, proc_io())
    if tr is not None:
        tr.uninstall()
        payload = dict(tr.export(), io=io)
        if mode == "cli":
            payload["startup_s"] = startup_ns / 1e9
        with open(trace_out, "w") as fh:
            json.dump(payload, fh)
    if mode == "cli":
        return result
    print(json.dumps({"result": result, "seconds": seconds, "probe_s": probe_s,
                      "io": io}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
