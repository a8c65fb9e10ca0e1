"""Golden corpus: the exact stdout and exit code of the README commands.

``tests/golden/cases.json`` names each case, its argv and its exit code; the
stdout of case NAME is ``tests/golden/NAME.out``. Every case runs in process
through ``cli.main`` with the golden directory's lattice files copied into a
fresh working directory, and must reproduce its file byte for byte. A change
that means to alter the output regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

and shows the diff of ``tests/golden/`` in its review.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from latstab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_case(argv: list[str], workdir: Path) -> tuple[int, str]:
    """Exit code and stdout of one CLI run inside workdir."""
    for src in GOLDEN.glob("*.txt"):
        shutil.copy(src, workdir / src.name)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("LATSTAB_NODE_BUDGET", raising=False)
    case = CASES[name]
    code, out = run_case(case["argv"], tmp_path)
    assert code == case["exit"]
    assert out == (GOLDEN / f"{name}.out").read_text()


def regenerate() -> None:
    os.environ.pop("LATSTAB_NODE_BUDGET", None)
    lines = []
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_case(CASES[name]["argv"], Path(tmp))
        (GOLDEN / f"{name}.out").write_text(out)
        entry = {"argv": CASES[name]["argv"], "exit": code}
        lines.append(f"  {json.dumps(name)}: {json.dumps(entry)}")
    (GOLDEN / "cases.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    regenerate()
