#!/usr/bin/env python3
"""Count the code lines of each module in src/besovlp.

A code line is a line that holds part of a statement.  Blank lines,
comments, and docstrings and other statements that are only a string
(or an implicit concatenation of strings) do not count.  Tokens come
from the standard ``tokenize`` module, so the count does not depend on
formatting tricks such as a '#' inside a string.

    python3 tools/code_lines.py [PACKAGE_DIR]

prints one line per module and the total, sorted by file name;
PACKAGE_DIR defaults to src/besovlp of this checkout.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "besovlp"

# tokens that carry no statement text of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold part of a statement which
    is not only a string."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:20s} {n:5d}")
    print(f"{'total':20s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
