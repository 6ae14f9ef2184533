"""The atrahasis benchmark: four seeded workloads, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/.  Workloads:

    bulk-gf16        the (9,5,6,6) GF(16) fixture on a 2 MiB file, via
                     the Cluster API: put, get 0-4, get 4-8, fail+repair,
                     fail two + repair2 --strategy subspace
    small-cli-gf256  1-64 KiB objects on the shortened (11,4,7,4) RS code
                     over GF(256), one atrahasis process per command
    wide-gf4096      RS (6,3,4,2) over GF(2^12) on a 64 KiB file, via the
                     Cluster API: put, get 3-5, fail+repair of node 1
    certify          verify_axioms, grow_pool, sweep_small_cases and the
                     36 two-failure repair programs; no store

Every cluster command runs in its own child process (bench/child.py or
the atrahasis CLI), so its peak RSS is its own.  Units of work repeat
until the next one would overrun --seconds.  Timings are scaled by the
speed probe of bench/probe.py; the raw samples are printed beside them.
Every output is checked: SHA-256 of each get against its input, repaired
blobs against the blobs written by put, the repair ledger against
d*beta symbols per chunk, and the pinned certify verdicts.

--trace 0 prints the end-to-end metrics, the same five for every
workload: setup_s, unit_s (time of the timed operations of one unit of
work), op_p50_s (median timed operation), peak_rss_MB and success_ratio;
the per-operation figures (put_MBps, cmd_p50_s, verify_s, ...) go to the
detail line.  --trace 1 runs the same units untraced and then traced,
and prints every per-layer metric from the spans (self time, calls,
counters; 0 for a layer the workload does not call) plus
trace.overhead_ratio; the span tree goes to stdout and the raw spans to
.bench_run/spans-<workload>.json.
The last line of stdout is the result object; the exit code is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import probe
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_run"
CHILD = BENCH / "child.py"
CHILD_TIMEOUT_S = 150
# set-up repeats at least SETUP_MIN times and until SETUP_MIN_S have passed
SETUP_MIN, SETUP_MAX, SETUP_MIN_S = 3, 15, 2.0
# an operation is scaled by the median probe reading of itself and of the
# SMOOTH operations on either side: one short probe reading is noisier
# than the machine's drift over a few operations
SMOOTH = 2
MB = 1e6

# per-layer spans reported as <name>.calls and <name>.s
LAYER_METRICS = (
    "fields.FieldSpec", "specfile.parse_document", "transforms.ShortenedCode",
    "code.download_matrix", "code.help_matrix", "code.repair_matrix",
    "transforms.central_repair_program", "code.verify_axioms",
    "linalg.rank_of_rows", "linalg.SpanSolver", "linalg.det",
    "tensors.sym_tensor_rows", "tensors.ext_tensor_rows",
    "search.grow_pool", "search.nullstellensatz_witness",
    "bulk.matmul", "bulk.mul_table", "bulk.bytes_to_symbols",
    "bulk.symbols_to_bytes", "cluster.read_node", "cluster.write_node",
    "cluster.fsync", "cluster.manifest_load", "cluster.manifest_save",
)


class CheckFailed(Exception):
    """A command failed or produced wrong output."""


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def disk_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def blob_digests(store: Path, n: int) -> dict[int, str]:
    return {h: sha256_file(store / f"node_{h}" / "chunks.blob") for h in range(n)}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile); with fewer than 11 samples, the maximum.
    """
    xs = sorted(values)
    if len(xs) < 11:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * i / (len(xs) - 1)


def _on_alarm(signum, frame):
    raise TimeoutError


class Recorder:
    """Samples, checks and (in a traced phase) spans of one phase of a run."""

    def __init__(self, work: Path, traced: bool):
        self.work = work
        self.traced = traced
        self.tracer = tracer.Tracer() if traced else None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.ops: list[tuple] = []  # (metric, seconds, probe seconds, size)
        self.units: list[tuple[int, int]] = []  # ops[a:b] of each checked unit
        self.op_s: list[float] = []  # every timed operation, speed-normalized
        self.unit_s: list[float] = []  # timed operations of each checked unit
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_kb: dict[str, int] = {}
        self.io: dict[str, list] = defaultdict(lambda: [0, 0])  # op -> [bytes, user bytes]
        self.startup_s: list[float] = []
        self.dbeta_ratios: list[float] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            raise CheckFailed(what)

    def child(self, label: str, argv: list[str]) -> tuple[str, float, dict | None]:
        """Run one command in a child; returns (stdout, wall seconds, trace).

        A nonzero exit counts as a failed operation.
        """
        env = dict(os.environ, PYTHONPATH=str(SRC))
        trace_path = self.work / "child-trace.json"
        if self.traced:
            env["BENCH_TRACE_OUT"] = str(trace_path)
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        span = self.tracer.open(f"cmd.{label}") if self.traced else None
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            env["BENCH_SPAWN_NS"] = str(time.monotonic_ns())
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    cwd=self.work)
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb[label] = max(self.peak_rss_kb.get(label, 0), usage.ru_maxrss)
        trace = None
        if self.traced:
            self.tracer.close(span)
            if trace_path.exists():
                trace = json.loads(trace_path.read_text())
                trace_path.unlink()
                self.tracer.adopt(trace["spans"], trace["counters"], span)
                if "startup_s" in trace:
                    self.startup_s.append(trace["startup_s"])
        if proc.returncode != 0:
            message = err_path.read_text(errors="replace").strip().splitlines()
            self.check(False, f"{label} exited {proc.returncode}: "
                              f"{message[-1] if message else ''}")
        self.check(True, label)
        return out_path.read_text(), seconds, trace

    def api(self, label: str, store: Path, op: str, *args) -> dict:
        req = json.dumps({"store": str(store), "op": op, "args": list(args)})
        out, _, _ = self.child(label, [sys.executable, str(CHILD), "api", req])
        return json.loads(out.strip().splitlines()[-1])

    def cli(self, label: str, *args: str) -> tuple[str, float, dict | None]:
        entry = [str(CHILD), "cli"] if self.traced else ["-m", "atrahasis"]
        return self.child(label, [sys.executable, *entry, *args])

    def timing(self, metric: str, seconds: float, probe_s: float,
               size: int | None = None) -> None:
        """Record one timed operation; size turns its samples into MB/s."""
        self.ops.append((metric, seconds, probe_s, size))

    def finish(self) -> None:
        """Speed-normalize the timed operations into samples and unit times."""
        probes = [op[2] for op in self.ops]
        for i, (metric, seconds, _, size) in enumerate(self.ops):
            window = probes[max(0, i - SMOOTH):i + SMOOTH + 1]
            normalized = probe.normalize(seconds, statistics.median(window))
            self.op_s.append(normalized)
            for out, t in ((self.samples, normalized), (self.raw, seconds)):
                out[metric].append(t if size is None else size / t / MB)
        self.unit_s = [sum(self.op_s[a:b]) for a, b in self.units]

    def count_io(self, op: str, io: dict | None, user_bytes: int, key: str) -> None:
        if io is not None:
            acc = self.io[op]
            acc[0] += io[key]
            acc[1] += user_bytes

    def span(self, name: str, fn):
        """Run fn under a benchmark-level span when traced."""
        if not self.traced:
            return fn()
        idx = self.tracer.open(name)
        try:
            return fn()
        finally:
            self.tracer.close(idx)


def gen_spec(work: Path, out: str, *gen_args: str) -> None:
    """Run `atrahasis gen` (or `shorten`) as a user would, for set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "atrahasis", *gen_args],
                          cwd=work, env=env, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not (work / out).is_file():
        raise CheckFailed(f"set-up command {gen_args[0]} failed: "
                          f"{proc.stderr.decode(errors='replace').strip()}")


# ---------------------------------------------------------------- workloads


class ApiWorkload:
    """One seeded file on a fixed code, driven through the Cluster API."""

    spec_name = "code.spec"
    size = 0
    gen_args: tuple = ()

    def setup(self, work: Path, seed: int) -> None:
        from atrahasis.code import derive_params

        gen_spec(work, self.spec_name, *self.gen_args, "--out", self.spec_name)
        data = random.Random(f"{seed}:{self.name}").randbytes(self.size)
        (work / "input.bin").write_bytes(data)
        self.digest = hashlib.sha256(data).hexdigest()
        p = json.loads((work / self.spec_name).read_text())["params"]
        self.params = derive_params(p["n"], p["k"], p["d"], p["flavor"])

    def put(self, rec: Recorder, store: Path) -> dict:
        if store.exists():
            shutil.rmtree(store)
        reply = rec.api("put", store, "put", self.spec_name, "input.bin")
        rec.timing("put_MBps", reply["seconds"], reply["probe_s"], self.size)
        rec.count_io("put", reply["io"], self.size, "wchar")
        rec.samples["storage_ratio"].append(disk_bytes(store) / self.size)
        return reply["result"]

    def get(self, rec: Recorder, work: Path, store: Path, nodes: list[int],
            label: str) -> None:
        out = work / "output.bin"
        reply = rec.api(label, store, "get", str(out), nodes)
        rec.check(sha256_file(out) == self.digest,
                  f"get from nodes {nodes} returned wrong bytes")
        out.unlink()
        rec.timing(f"{label}_MBps", reply["seconds"], reply["probe_s"], self.size)
        rec.count_io("get", reply["io"], self.size, "rchar")

    def fail_repair(self, rec: Recorder, store: Path, h: int, chunks: int,
                    blobs: dict[int, str]) -> None:
        rec.api("fail", store, "fail", h)
        reply = rec.api("repair", store, "repair", h)
        rec.timing("repair_MBps", reply["seconds"], reply["probe_s"], self.size)
        rec.check(sha256_file(store / f"node_{h}" / "chunks.blob") == blobs[h],
                  f"repaired node {h} differs from the blob put wrote")
        ledger = json.loads((store / "manifest.json").read_text())["ledger"]
        p = self.params
        ratio = ledger["repair_symbols"] / (chunks * p.d * p.beta)
        rec.dbeta_ratios.append(ratio)
        rec.check(ratio == 1, f"repair ledger charged {ratio} x d*beta")


class BulkGF16(ApiWorkload):
    name = "bulk-gf16"
    size = 2 << 20
    gen_args = ("gen", "--fixture", "atrahasis-956")

    def run_unit(self, rec: Recorder, work: Path, seed: int, i: int) -> None:
        rng = random.Random(f"{seed}:{self.name}:{i}")
        store = work / "store"
        p = self.params
        chunks = self.put(rec, store)["chunk_count"]
        blobs = blob_digests(store, p.n)
        self.get(rec, work, store, list(range(p.k)), "get")
        self.get(rec, work, store, list(range(p.n - p.k, p.n)), "get_dense")
        self.fail_repair(rec, store, rng.randrange(p.n), chunks, blobs)
        f, g = sorted(rng.sample(range(p.n), 2))
        rec.api("fail", store, "fail", f)
        rec.api("fail", store, "fail", g)
        reply = rec.api("repair2", store, "repair2", f, g, "subspace")
        rec.timing("repair2_MBps", reply["seconds"], reply["probe_s"], self.size)
        for h in (f, g):
            rec.check(sha256_file(store / f"node_{h}" / "chunks.blob") == blobs[h],
                      f"repair2 rebuilt node {h} wrong")
        shutil.rmtree(store)


class WideGF4096(ApiWorkload):
    name = "wide-gf4096"
    size = 64 << 10
    gen_args = ("gen", "--source", "rs", "--n", "6", "--k", "3", "--d", "4",
                "--field", "gf4096")

    repair_node = 1  # fixed: each node's repair builds a different set of tables

    def run_unit(self, rec: Recorder, work: Path, seed: int, i: int) -> None:
        store = work / "store"
        p = self.params
        chunks = self.put(rec, store)["chunk_count"]
        blobs = blob_digests(store, p.n)
        self.get(rec, work, store, list(range(p.n - p.k, p.n)), "get_dense")
        self.fail_repair(rec, store, self.repair_node, chunks, blobs)
        shutil.rmtree(store)


class SmallCliGF256:
    """Per-command fixed costs: one atrahasis process per command."""

    name = "small-cli-gf256"
    spec_name = "short.spec"
    min_size, max_size = 1 << 10, 64 << 10
    strata = 8  # every 8 consecutive objects cover the log-size range evenly

    def setup(self, work: Path, seed: int) -> None:
        self.order = random.Random(f"{seed}:{self.name}").sample(range(self.strata),
                                                                  self.strata)
        gen_spec(work, "rs.spec", "gen", "--source", "rs", "--n", "12", "--k", "5",
                 "--d", "8", "--field", "gf256", "--out", "rs.spec")
        gen_spec(work, self.spec_name, "shorten", "rs.spec", "--delta", "1",
                 "--out", self.spec_name)

    def run_unit(self, rec: Recorder, work: Path, seed: int, i: int) -> None:
        rng = random.Random(f"{seed}:{self.name}:{i}")
        u = (self.order[i % self.strata] + rng.random()) / self.strata
        size = round(self.min_size * (self.max_size / self.min_size) ** u)
        data = rng.randbytes(size)
        digest = hashlib.sha256(data).hexdigest()
        (work / "object.bin").write_bytes(data)
        store = work / "store"
        if store.exists():
            shutil.rmtree(store)

        def command(label, *args):
            (out, seconds, trace), _, probe_s = probe.run_probed(
                lambda: rec.cli(label, *args))
            rec.timing("cmd_s", seconds, probe_s)
            return out, trace

        def store_command(label, *args):
            return command(label, *args, "--store", "store")[1]

        trace = store_command("put", "put", "object.bin", "--spec", self.spec_name)
        rec.count_io("put", trace and trace["io"], size, "wchar")
        rec.samples["storage_ratio"].append(disk_bytes(store) / size)
        manifest = json.loads((store / "manifest.json").read_text())
        n = len(manifest["node_status"])
        blobs = blob_digests(store, n)
        for label, nodes in (("get", ()), ("get_dense", ("--nodes", "7,8,9,10"))):
            trace = store_command(label, "get", "output.bin", *nodes)
            rec.check(sha256_file(work / "output.bin") == digest,
                      f"{label} of a {size}-byte object returned wrong bytes")
            rec.count_io("get", trace and trace["io"], size, "rchar")
        h = rng.randrange(n)
        store_command("fail", "fail", str(h))
        store_command("repair", "repair", str(h))
        rec.check(sha256_file(store / f"node_{h}" / "chunks.blob") == blobs[h],
                  f"repaired node {h} differs from the blob put wrote")
        out, _ = command("status", "--json", "status", "--store", "store")
        status = json.loads(out)
        rec.check(all(s == "live" for s in status["node_status"]),
                  "status reports a node down after repair")
        p = status["params"]
        ratio = (status["ledger"]["repair_symbols"]
                 / (status["file"]["chunk_count"] * p["d"] * p["beta"]))
        rec.dbeta_ratios.append(ratio)
        rec.check(ratio == 1, f"repair ledger charged {ratio} x d*beta")
        shutil.rmtree(store)


class Certify:
    """Code design with no store: the pure-Python exact algebra."""

    name = "certify"
    pool = (0, 1, 2, 4, 7, 8, 11, 13, 14, 23, 47)
    sweep_cases = 64

    def setup(self, work: Path, seed: int) -> None:
        from atrahasis.code import SYMMETRIC, derive_params
        from atrahasis.fields import binary_field, prime_field
        from atrahasis.search import SearchConfig

        self.gf256 = binary_field(8)
        self.search = SearchConfig(binary_field(6), derive_params(9, 5, 6, SYMMETRIC),
                                   (0, 2, 6), (0, 1, 3))
        self.gf127 = prime_field(127)
        rng = random.Random(f"{seed}:{self.name}")
        n, d = 9, 6  # the fixture's
        self.pairs = [(f, g, sorted(rng.sample([h for h in range(n) if h not in (f, g)], d)))
                      for f in range(n) for g in range(f + 1, n)]

    def run_unit(self, rec: Recorder, work: Path, seed: int, i: int) -> None:
        from atrahasis.code import EXTERIOR, rs_stars_t2, verify_axioms
        from atrahasis.fixtures import atrahasis_956
        from atrahasis.search import NONZERO_WITNESSED, grow_pool, sweep_small_cases
        from atrahasis.transforms import central_repair_program, subspace_bandwidth

        # fresh families each unit: they cache node and message rows, and
        # every unit must do the same work, as a fresh `atrahasis verify` does
        fixture = atrahasis_956()
        rs_ext = rs_stars_t2(self.gf256, 12, 5, EXTERIOR)

        def timed(metric, fn):
            result, seconds, probe_s = probe.run_probed(
                lambda: rec.span(f"certify.{metric[:-2]}", fn))
            rec.timing(metric, seconds, probe_s)
            return result

        reports = timed("verify_s", lambda: [verify_axioms(fixture),
                                             verify_axioms(rs_ext)])
        for report in reports:
            rec.check(report.ok, f"verify failed: {report.describe()}")
        result = timed("grow_pool_s", lambda: grow_pool(self.search))
        rec.check(result.ok and result.pool == self.pool,
                  f"grow_pool found pool {result.pool}")
        sweep = timed("sweep_s", lambda: sweep_small_cases(30, self.gf127, seed=seed))
        rec.check(len(sweep) == self.sweep_cases
                  and all(r.verdict == NONZERO_WITNESSED for r in sweep),
                  "sweep left cases unwitnessed")
        programs = timed("repair_plan_s", lambda: [
            central_repair_program(fixture, f, g, helpers, "subspace")
            for f, g, helpers in self.pairs])
        want = subspace_bandwidth(fixture.params.k)
        rec.check(all(p.plan.total_bandwidth == want for p in programs),
                  "a two-failure repair program misses the subspace bandwidth")
        # the algebra runs in this process, so its peak RSS is this process's
        rec.peak_rss_kb["certify"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {w.name: w for w in (BulkGF16, SmallCliGF256, WideGF4096, Certify)}

# end-to-end metrics, reported by every workload, with their units
END_TO_END = {"setup_s": "s", "unit_s": "s", "op_p50_s": "s",
              "peak_rss_MB": "MB", "success_ratio": "ratio"}


# ---------------------------------------------------------------- running


def measure(workload, rec: Recorder, work: Path, seed: int, seconds: float,
            units: int | None = None) -> tuple[int, float]:
    """Run units until the next would overrun `seconds` (or exactly `units`).

    A failed check ends its unit; the run goes on with the next one.
    """
    start = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        ops = len(rec.ops)
        try:
            rec.span("unit", lambda: workload.run_unit(rec, work, seed, done))
            rec.units.append((ops, len(rec.ops)))
        except CheckFailed:
            pass
        done += 1
        elapsed = time.perf_counter() - start
        if units is not None:
            if done >= units:
                break
        elif elapsed + (time.perf_counter() - t0) > seconds:
            break
    elapsed = time.perf_counter() - start
    rec.finish()
    return done, elapsed


def median_or_zero(values: list[float]) -> float:
    """Median of the samples; 0 only when every unit failed its checks."""
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(rec: Recorder, setup_s: float) -> tuple[dict, dict]:
    metrics = {
        "setup_s": setup_s,
        "unit_s": median_or_zero(rec.unit_s),
        "op_p50_s": median_or_zero(rec.op_s),
        "peak_rss_MB": max(rec.peak_rss_kb.values(), default=0) / 1024,
        "success_ratio": (rec.attempted - rec.failed) / max(rec.attempted, 1),
    }
    # the per-operation figures: medians over the units of the run
    by_op = {k: statistics.median(v) for k, v in rec.samples.items()}
    if "cmd_s" in rec.samples:
        by_op["cmd_p50_s"] = by_op.pop("cmd_s")
        by_op["cmd_tail_s"], pct = tail(rec.samples["cmd_s"])
        by_op["cmd_tail_percentile"] = round(pct, 2)
        by_op["cmd_samples"] = len(rec.samples["cmd_s"])
    detail = {"by_op": by_op}
    detail["samples"] = {k: [round(x, 5) for x in v] for k, v in rec.samples.items()}
    detail["raw_samples"] = {k: [round(x, 5) for x in v] for k, v in rec.raw.items()}
    detail["peak_rss_MB_by_command"] = {k: round(v / 1024, 1)
                                        for k, v in rec.peak_rss_kb.items()}
    return metrics, detail


def per_layer_metrics(rec: Recorder, overhead: float) -> dict:
    """Every per-layer metric; a layer the workload does not call reads 0."""
    summary = tracer.summarize(rec.tracer.spans)
    counters = rec.tracer.counters
    metrics = {}
    for layer in LAYER_METRICS:
        row = summary.get(layer, {"calls": 0, "s": 0.0})
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.s"] = row["s"]
    matmul_s = metrics["bulk.matmul.s"]
    metrics["bulk.matmul.GBps"] = (counters.get("bulk.matmul.bytes", 0) / matmul_s / 1e9
                                   if matmul_s > 0 else 0.0)
    for key in ("cluster.read_node.bytes", "cluster.write_node.bytes"):
        metrics[key] = counters.get(key, 0)
    for op, key in (("get", "cluster.read_per_user_byte"),
                    ("put", "cluster.write_per_user_byte")):
        moved, user = rec.io.get(op, (0, 0))
        metrics[key] = moved / user if user else 0.0
    metrics["cluster.storage_ratio"] = median_or_zero(rec.samples["storage_ratio"])
    metrics["cluster.repair_symbols_per_dbeta"] = (statistics.mean(rec.dbeta_ratios)
                                                   if rec.dbeta_ratios else 0.0)
    metrics["cli.startup_s"] = median_or_zero(rec.startup_s)
    metrics["trace.overhead_ratio"] = overhead
    return metrics


PER_LAYER_UNITS = {"calls": "count", "s": "s", "GBps": "GB/s", "bytes": "B",
                   "read_per_user_byte": "ratio", "write_per_user_byte": "ratio",
                   "storage_ratio": "ratio", "repair_symbols_per_dbeta": "ratio",
                   "startup_s": "s", "overhead_ratio": "ratio"}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in (SRC / "atrahasis").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "atrahasis" / "__init__.py").is_file():
        print(f"error: no atrahasis sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC / "atrahasis"), quiet=1)
    # one CPU for this process and its children, so that the speed probe
    # runs on the CPU whose speed it is meant to measure
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: running unpinned: {exc}", file=sys.stderr)

    workload = WORKLOADS[args.workload]()
    work = WORK_ROOT / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        setup = Recorder(work, traced=False)
        least, most, min_s = (1, 1, 0) if args.trace else (SETUP_MIN, SETUP_MAX, SETUP_MIN_S)
        start = time.perf_counter()
        while len(setup.ops) < least or (len(setup.ops) < most
                                         and time.perf_counter() - start < min_s):
            _, seconds, probe_s = probe.run_probed(lambda: workload.setup(work, args.seed))
            setup.timing("setup_s", seconds, probe_s)
        setup.finish()

        plain = Recorder(work, traced=False)
        budget = args.seconds / 2 if args.trace else args.seconds
        units, plain_wall = measure(workload, plain, work, args.seed, budget)
        detail = {"workload": args.workload, "seed": args.seed, "units": units,
                  "src_lines": src_lines()}
        if args.trace:
            rec = Recorder(work, traced=True)
            if isinstance(workload, Certify):
                rec.tracer.install()
            try:
                _, traced_wall = measure(workload, rec, work, args.seed, budget, units)
            finally:
                rec.tracer.uninstall()
            metrics = per_layer_metrics(rec, traced_wall / plain_wall)
            spans_path = WORK_ROOT / f"spans-{args.workload}.json"
            spans_path.write_text(json.dumps(rec.tracer.export()))
            print(json.dumps({"span_tree": tracer.span_tree(rec.tracer.spans)}))
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
            units_of = {m: PER_LAYER_UNITS[m.rsplit(".", 1)[1]] for m in metrics}
            attempted = plain.attempted + rec.attempted
            failed = plain.failed + rec.failed
            failures = plain.failures + rec.failures
        else:
            metrics, more = end_to_end_metrics(plain,
                                               statistics.median(setup.samples["setup_s"]))
            more["raw_samples"]["setup_s"] = setup.raw["setup_s"]
            detail.update(more)
            if isinstance(workload, ApiWorkload):
                p = workload.params
                detail.update(input_bytes=workload.size, ideal_storage_ratio=p.n / p.k,
                              k_alpha=p.k * p.alpha, d_beta=p.d * p.beta)
            units_of = END_TO_END
            attempted, failed, failures = plain.attempted, plain.failed, plain.failures
    except CheckFailed as exc:  # set-up failed: nothing was measured
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail["failures"] = failures[:20]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units_of[m]} for m, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
