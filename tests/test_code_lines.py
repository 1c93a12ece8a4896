import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def f(x):
    """A docstring."""
    "a string expression" "implicitly joined"
    text = """a string in a statement
# spans code lines, a '#' inside it included"""
    return (math.pi *
            x, text)
'''


def test_code_lines_skips_docstrings_comments_blanks_and_string_expressions():
    # import, def, the two lines of the text assignment and the two of the return
    assert code_lines.code_lines(SNIPPET) == 6


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "6", "b.py", "1", "total", "7"]
