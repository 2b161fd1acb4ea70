"""Line counts of the package's modules: every line (`wc -l`) and the code
lines, those that are neither blank, nor part of a docstring, nor comment
only. Docstring lines are found with `ast` (the string that opens a module,
class or function body), comment-only lines with `tokenize`.

Usage: python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "unifan"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of a module's scopes."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines holding a token other than a comment, outside the docstrings."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE}
    skip |= {tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in skip:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstring_lines(ast.parse(text)))


def main() -> None:
    rows = []
    for path in sorted(DEFAULT.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((path.name, text.count("\n"), code_lines(text)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")


if __name__ == "__main__":
    main()
