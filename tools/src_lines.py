"""Line counts of the library source: every line of ``src/``, and the lines
of code alone, without docstrings, comments and blank lines.

A line counts as code when a token other than a comment, a string
statement (a docstring, or any string that stands alone as a statement)
or layout (newlines, indents) lies on it; a token that spans lines, a
multi-line string in an expression say, counts every line it spans.
Tokens come from the standard library's ``tokenize``, so a ``#`` or a
quote inside a string is never mistaken for a comment or a docstring.

    python3 tools/src_lines.py [DIR]

prints ``total N`` and ``code M`` for the ``*.py`` files under DIR
(default: the ``src/`` next to this script's directory).
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> set[int]:
    """The numbers of the lines of ``path`` that hold code."""
    with path.open("rb") as fh:
        # comments and blank-line breaks hold no code and do not end a statement
        tokens = [tok for tok in tokenize.tokenize(fh.readline)
                  if tok.type not in (tokenize.NL, tokenize.COMMENT)]
    lines: set[int] = set()
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):
        if tok.type in LAYOUT:
            continue
        if tok.type == tokenize.STRING and before.type in STATEMENT_START and after.type == tokenize.NEWLINE:
            continue  # a string statement: a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def count(root: Path) -> tuple[int, int]:
    """(total, code) over the ``*.py`` files under ``root``."""
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        with path.open("rb") as fh:
            total += sum(1 for _ in fh)
        code += len(code_lines(path))
    return total, code


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    if not root.is_dir():
        print(f"not a directory: {root}", file=sys.stderr)
        return 2
    total, code = count(root)
    print(f"total {total}")
    print(f"code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
