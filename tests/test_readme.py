"""The README's command-line block runs as written."""

import contextlib
import io
import json
import os
import re
import shlex
import sys
from pathlib import Path

from powerpoly.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_block() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line and not line.startswith("#")]


def _run_block(tmp_path, monkeypatch):
    """Runs the README's command-line block; the exit code and stdout of each command."""
    lines = _command_block()
    assert any(line.startswith("echo ") for line in lines)
    monkeypatch.chdir(tmp_path)
    codes, outputs = {}, {}
    for line in lines:
        words = shlex.split(line, comments=True)
        if words[0] == "echo":
            assert words[-2] == ">", line
            Path(words[-1]).write_text(" ".join(words[1:-2]) + "\n", encoding="utf-8")
            continue
        assert words[0] == "powerpoly", line
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes[line] = main(words[1:])
        outputs[words[1]] = buf.getvalue()
    return codes, outputs


def test_command_line_block_runs(tmp_path, monkeypatch):
    codes, outputs = _run_block(tmp_path, monkeypatch)
    # polytope-exists answers "does not exist" for the 1/4 square.
    assert codes == {line: 2 if "polytope-exists" in line else 0 for line in codes}
    verdict = json.loads(outputs["polytope-exists"])
    assert (verdict["failing_pair"], verdict["witness_point"]) == ([0, 1], ["1/4", "1/4"])
    assert os.path.exists("grid.csv")


def test_no_command_solves_an_lp(tmp_path, monkeypatch):
    # One example of each of the nine subcommands answers with every
    # binding of `solve_lp` in the package made to raise.
    def refused(*args):
        raise AssertionError("no command may solve an LP")

    bindings = [m for name, m in sys.modules.items() if name.startswith("powerpoly")]
    bindings = [m for m in bindings if hasattr(m, "solve_lp")]
    assert {m.__name__ for m in bindings} >= {"powerpoly.linprog", "powerpoly.polytope"}
    for module in bindings:
        monkeypatch.setattr(module, "solve_lp", refused)
    codes, _ = _run_block(tmp_path, monkeypatch)
    assert len({line.split()[1] for line in codes}) == 9
    assert codes == {line: 2 if "polytope-exists" in line else 0 for line in codes}
