"""Smoke tests of the scripts under ``tools/``."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_src_lines_counts_code_within_the_total(tmp_path):
    out = subprocess.run(
        [sys.executable, str(TOOLS / "src_lines.py")], capture_output=True, text=True, check=True
    ).stdout
    counts = dict(line.split() for line in out.splitlines())
    total, code = int(counts["total"]), int(counts["code"])
    assert 0 < code <= total

    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""Module docstring,\non two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # trailing comment\n"
        '    """Docstring."""\n'
        '    s = """a string\n'
        '# not a comment"""\n'
        "    return s\n"
    )
    out = subprocess.run(
        [sys.executable, str(TOOLS / "src_lines.py"), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "total 9\ncode 4\n"  # def, the two lines of s, return
