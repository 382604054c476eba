"""Count the code lines of each `src/hoferlab` module.

A code line holds a token that is not a comment and is not part of a
module, class or function docstring; blank lines, comment lines and
docstrings do not count, and a token that spans lines (a multi-line
string) counts each of its lines.  Run from the repository root as
``python -m tests.code_lines``.  It prints one line per module and the
total; `tests/test_code_lines.py` holds the total to `BUDGET`.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hoferlab"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# The most code lines `src/hoferlab` may have (ROADMAP item 9).
BUDGET = 1577


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def module_lines() -> dict[str, int]:
    """The code lines of each `src/hoferlab` module, by module name."""
    return {path.stem: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def main() -> None:
    counts = module_lines()
    for name, n in counts.items():
        print(f"{name:12s} {n:6d}")
    print(f"{'total':12s} {sum(counts.values()):6d}")


if __name__ == "__main__":
    main()
