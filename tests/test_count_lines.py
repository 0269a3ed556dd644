"""The line-count gate ``tools/count_lines.py``, loaded by path."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os

TEXT = """a string that is
not a docstring"""
# a comment-only line


class Thing:
    """Class docstring."""

    def method(self):
        """Function
        docstring."""
        return (os.sep +
                TEXT)  # a trailing comment
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_docstrings_comments_and_blanks():
    # Code: import, the two lines of TEXT, class, def and the two-line return.
    assert load_tool().count(SOURCE) == (18, 7)


def test_total_row_is_the_sum_of_the_module_rows(capsys):
    tool = load_tool()
    assert tool.main() == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "lines", "code"]
    assert [row[0] for row in rows] == sorted(p.name for p in tool.PACKAGE.glob("*.py"))
    assert total[0] == "total"
    assert [int(total[1]), int(total[2])] == [sum(int(row[1]) for row in rows),
                                             sum(int(row[2]) for row in rows)]
