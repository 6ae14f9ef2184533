"""The atrahasis process: `cli.run` ends it with os._exit once stdout and
stderr are flushed, which skips the interpreter's teardown.  These tests
run real processes, and check what makes that safe: every command closes
each file it opened before `cli.main` returns."""

import gc
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from atrahasis.cli import main
from atrahasis.cluster import Cluster

ROOT = Path(__file__).resolve().parents[1]


def _env():
    """This environment without PYTHONUNBUFFERED, so that a child's stdout
    into a pipe is block-buffered, as it is by default."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _atrahasis(*args):
    proc = subprocess.run([sys.executable, "-m", "atrahasis", *args], capture_output=True,
                          text=True, env=_env())
    return proc.returncode, proc.stdout, proc.stderr


# runs `python -m atrahasis` with sys.argv[1:] under a trace function, so
# that run ends with sys.exit and the teardown runs
_TRACED = ("import runpy, sys\n"
           "sys.settrace(lambda *event: None)\n"
           "sys.argv = ['atrahasis', *sys.argv[1:]]\n"
           "runpy.run_module('atrahasis', run_name='__main__')\n")


@pytest.fixture()
def store(tmp_path):
    """A fixture-code store holding 20,000 random bytes: (spec, data, store)."""
    spec, data, store = tmp_path / "fix.spec", tmp_path / "data.bin", tmp_path / "store"
    data.write_bytes(random.Random(24).randbytes(20_000))
    assert main(["gen", "--fixture", "atrahasis-956", "--out", str(spec)]) == 0
    assert main(["put", str(data), "--spec", str(spec), "--store", str(store)]) == 0
    return spec, data, store


def _blobs(store):
    return [(store / f"node_{h}" / "chunks.blob").read_bytes() for h in range(9)]


def test_teardown_is_skipped(store):
    _, _, path = store
    probe = ("import atexit, runpy, sys\n"
             "atexit.register(print, 'TEARDOWN')\n"
             f"sys.argv = ['atrahasis', '--json', 'status', '--store', {str(path)!r}]\n"
             "runpy.run_module('atrahasis', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_env())
    assert proc.returncode == 0, proc.stderr
    assert "TEARDOWN" not in proc.stdout
    assert json.loads(proc.stdout) == Cluster(path).status()


def test_profiler_still_reports(store):
    _, _, path = store
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "atrahasis",
                           "--json", "status", "--store", str(path)],
                          capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    status, profile = proc.stdout.split("\n", 1)
    assert json.loads(status) == Cluster(path).status()
    assert "function calls" in profile and "Ordered by" in profile


def _into_closed_pipe(argv):
    """Run a child with stdout a pipe whose reader has closed."""
    reader, writer = os.pipe()
    os.close(reader)
    try:
        return subprocess.run([sys.executable, *argv], stdout=writer, stderr=subprocess.PIPE,
                              text=True, env=_env())
    finally:
        os.close(writer)


@pytest.mark.parametrize("entry", [["-m", "atrahasis"], ["-c", _TRACED]],
                         ids=["fast-exit", "traced"])
def test_closed_stdout_is_one_error_line(tmp_path, store, entry):
    _, data, path = store
    out = tmp_path / "out.bin"
    proc = _into_closed_pipe([*entry, "get", str(out), "--store", str(path)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"
    # the data reached its file: only the report was lost
    assert out.read_bytes() == data.read_bytes()


def test_no_stdout_at_all(tmp_path, store):
    # with descriptor 1 closed at start, sys.stdout is None and print
    # writes nothing: the command runs and succeeds
    _, data, path = store
    out = tmp_path / "out.bin"
    proc = subprocess.run([sys.executable, "-m", "atrahasis", "get", str(out), "--store",
                           str(path)], stderr=subprocess.PIPE, text=True, env=_env(),
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_bytes() == data.read_bytes()


def test_failed_print_is_reported_once(store):
    # output past the buffer fails inside main, which reports it; the
    # flush in run then fails again, and adds nothing
    _, _, path = store
    probe = ("from atrahasis import cli\n"
             "command = cli.COMMANDS['status']\n"
             "cli.COMMANDS['status'] = command._replace(handler=lambda args: print('x' * 100_000))\n"
             "cli.run()\n")
    proc = _into_closed_pipe(["-c", probe, "status", "--store", str(path)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"


def _open_fds():
    fds = Path("/proc/self/fd")
    return set(os.listdir(fds)) if fds.is_dir() else set()


def _corrupt(path):
    """Flip bits of a body byte of a blob: its header and length still
    check out, its digest does not."""
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x03
    path.write_bytes(bytes(raw))


# (name, commands run first, the command checked, its exit code); {tmp},
# {spec}, {data} and {store} are filled in, and a command that is a
# callable gets the store's path
CLOSING_CASES = [
    ("gen", [], ["gen", "--fixture", "atrahasis-956", "--out", "{tmp}/g.spec"], 0),
    ("verify", [], ["verify", "{spec}"], 0),
    ("shorten", [], ["shorten", "{spec}", "--delta", "1", "--out", "{tmp}/s.spec"], 0),
    ("sweep", [], ["sweep", "--alpha-cap", "2", "--out", "{tmp}/sweep.tsv"], 0),
    ("put", [], ["put", "{data}", "--spec", "{spec}", "--store", "{tmp}/other"], 0),
    ("get", [], ["get", "{tmp}/out.bin", "--store", "{store}"], 0),
    ("get-dense", [], ["get", "{tmp}/out.bin", "--store", "{store}", "--nodes", "4,5,6,7,8"], 0),
    ("fail", [], ["fail", "3", "--store", "{store}"], 0),
    ("repair", [["fail", "3", "--store", "{store}"]], ["repair", "3", "--store", "{store}"], 0),
    ("repair2", [["fail", "0", "--store", "{store}"], ["fail", "7", "--store", "{store}"]],
     ["repair2", "0", "7", "--store", "{store}"], 0),
    ("status", [], ["status", "--store", "{store}"], 0),
    ("put-error", [], ["put", "{data}", "--spec", "{spec}", "--store", "{data}/under"], 2),
    ("get-error", [lambda store: _corrupt(store / "node_0" / "chunks.blob")],
     ["get", "{tmp}/out.bin", "--store", "{store}"], 2),
    ("fail-error", [], ["fail", "99", "--store", "{store}"], 2),
    ("repair-error", [["fail", "3", "--store", "{store}"],
                      lambda store: _corrupt(store / "node_0" / "chunks.blob")],
     ["repair", "3", "--store", "{store}"], 2),
    ("repair2-error", [["fail", "0", "--store", "{store}"], ["fail", "7", "--store", "{store}"],
                       lambda store: _corrupt(store / "node_1" / "chunks.blob")],
     ["repair2", "0", "7", "--store", "{store}"], 2),
    ("status-error", [lambda store: (store / "manifest.json").write_text("{")],
     ["status", "--store", "{store}"], 2),
]


@pytest.mark.parametrize("before, argv, code", [case[1:] for case in CLOSING_CASES],
                         ids=[case[0] for case in CLOSING_CASES])
def test_command_leaves_no_file_open(tmp_path, store, monkeypatch, capsys, before, argv, code):
    spec, data, path = store
    fill = {"tmp": tmp_path, "spec": spec, "data": data, "store": path}
    for step in before:
        if callable(step):
            step(path)
        else:
            assert main([arg.format(**fill) for arg in step]) == 0
    gc.collect()
    fds, unraisable = _open_fds(), []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main([arg.format(**fill) for arg in argv]) == code, capsys.readouterr().err
        gc.collect()
    assert [u.exc_value for u in unraisable] == []
    assert _open_fds() == fds


def test_store_cycle_through_processes(store):
    spec, data, _ = store
    tmp = spec.parent
    path, out, user = tmp / "cycle", tmp / "cycle.bin", data.read_bytes()
    code, stdout, err = _atrahasis("put", str(data), "--spec", str(spec), "--store", str(path))
    assert (code, err) == (0, "")
    assert stdout == f"stored {data}: 1344 chunks on 9 nodes\n"
    written = _blobs(path)
    for nodes in ("0,1,2,3,4", "4,5,6,7,8"):
        out.unlink(missing_ok=True)
        code, stdout, err = _atrahasis("get", str(out), "--store", str(path), "--nodes", nodes)
        assert (code, err) == (0, "")
        assert stdout == f"recovered {len(user)} bytes from nodes [{nodes}]\n".replace(",", ", ")
        assert out.read_bytes() == user
    assert _atrahasis("fail", "3", "--store", str(path))[:2] == (0, "node 3 failed\n")
    code, _, err = _atrahasis("fail", "3", "--store", str(path))
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
    code, stdout, err = _atrahasis("repair", "3", "--store", str(path))
    assert (code, err) == (0, "") and stdout.startswith("repaired node 3 from ")
    assert _blobs(path) == written
    for node in ("0", "7"):
        assert _atrahasis("fail", node, "--store", str(path))[0] == 0
    code, stdout, err = _atrahasis("repair2", "0", "7", "--store", str(path))
    assert (code, err) == (0, "") and stdout.startswith("repaired nodes [0, 7] via ")
    assert _blobs(path) == written
    code, stdout, err = _atrahasis("--json", "status", "--store", str(path))
    assert (code, err) == (0, "")
    status = json.loads(stdout)
    assert status == Cluster(path).status()
    assert status["node_status"] == ["live"] * 9
    assert status["file"]["original_length"] == len(user)
    assert [entry["op"] for entry in status["ledger"]["history"]] == ["repair", "repair2"]
    for node in ("0", "1", "2", "3", "4"):
        assert _atrahasis("fail", node, "--store", str(path))[0] == 0
    code, _, err = _atrahasis("get", str(tmp / "none.bin"), "--store", str(path))
    assert code == 5 and err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp / "none.bin").exists()


def test_console_script_is_run():
    # read as text, so that the check runs where tomllib does not exist
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    entries = [line.split("#")[0].strip() for line in section.splitlines()]
    assert [entry for entry in entries if entry] == ['atrahasis = "atrahasis.cli:run"']
