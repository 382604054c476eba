"""The code-line count of `src/hoferlab` and its budget."""

from __future__ import annotations

from tests.code_lines import BUDGET, code_lines, module_lines


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = '''"""Module docstring."""

# a comment
def f(x):
    """Function docstring,
    on two lines."""
    y = """a string
    that is code"""  # trailing comment
    return x + len(y)
'''
    assert code_lines(source) == 4


def test_src_stays_within_the_code_line_budget():
    counts = module_lines()
    assert "flows" in counts and sum(counts.values()) <= BUDGET, counts
