"""The README's library quick start runs as written and gives the values its
comments state, and each line of its command-line block runs as written."""

import contextlib
import csv
import io
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

from latstab.cli import main

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    stated = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            compile(comment.strip(), "<comment>", "eval")
        except SyntaxError:  # prose, or no comment
            exec(line, namespace)
            continue
        value = eval(code, namespace)
        assert repr(value) == comment.strip(), line
        stated += 1
    assert stated == 2
    # the last comment: the least probed radius^2 whose certified f_hat^2 is <= 1/100
    probe = namespace["probe"]
    i = probe.radius_grid.index(probe.estimated_r_sq)
    assert probe.f_hat_sq[i] <= Fraction(1, 100) < min(probe.f_hat_sq[:i], default=1)


def test_command_line_block(tmp_path, monkeypatch):
    """Each line, in order and in one directory (the first writes basis.txt),
    exits 0 with a JSON document, or CSV rows under --csv."""
    monkeypatch.delenv("LATSTAB_NODE_BUDGET", raising=False)
    monkeypatch.chdir(tmp_path)
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    assert len(lines) == 14
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "latstab", line
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0, line
        if "--csv" in argv:
            rows = list(csv.reader(io.StringIO(out.getvalue())))
            assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows), line
        else:
            assert json.loads(out.getvalue())["command"] == argv[0], line
