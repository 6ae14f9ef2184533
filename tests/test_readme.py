"""The README's library quick start and its cluster-simulator commands
run as written."""

import random
import re
import shlex
from pathlib import Path

from atrahasis.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})


def test_readme_cluster_simulator_runs(tmp_path, monkeypatch):
    # every line of the CLI section's "# cluster simulator" block, in order,
    # on the spec its first gen line writes; a bracketed [--option ...] is
    # an optional part, left out here
    cli = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", cli, re.S).group(1)
    gen = next(line for line in block.splitlines() if line.startswith("atrahasis gen"))
    lines = block.split("# cluster simulator\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert len(lines) >= 8
    monkeypatch.chdir(tmp_path)
    data = random.Random(23).randbytes(3000)
    Path("data.bin").write_bytes(data)
    for line in (gen, *lines):
        command = re.sub(r"\[.*?\]", "", line.split("#", 1)[0])
        argv = shlex.split(command)
        assert argv[0] == "atrahasis", line
        assert main(argv[1:]) == 0, line
    assert Path("out.bin").read_bytes() == data
