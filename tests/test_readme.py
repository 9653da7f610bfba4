"""The README's Python examples and CLI workflows run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import nospillover

README = Path(__file__).resolve().parent.parent / "README.md"

# Each README ``sh`` line either runs here or is skipped by this rule:
# installs and the test commands are not CLI workflows, and ``reproduce``
# is exercised by the CLI and acceptance tests.
RUN = ("random", "solve", "verify")
SKIP = (("pip", "install"), ("pytest",), ("nospillover", "reproduce"))


def test_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


def test_cli_lines_run(tmp_path):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    src = str(Path(nospillover.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    commands = [shlex.split(line, comments=True) for line in lines]
    ran = 0
    for words in filter(None, commands):
        if any(tuple(words[: len(rule)]) == rule for rule in SKIP):
            continue
        assert words[0] == "nospillover" and words[1] in RUN, f"no rule for {words}"
        proc = subprocess.run(
            [sys.executable, "-m", "nospillover.cli", *words[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"{shlex.join(words)}: {proc.stdout}{proc.stderr}"
        ran += 1
    assert ran >= 3
