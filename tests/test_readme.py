"""The README's library quick start runs as written and gives the values its
comments state."""

import re
from fractions import Fraction
from pathlib import Path

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
