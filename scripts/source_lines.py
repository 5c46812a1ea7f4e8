#!/usr/bin/env python3
"""Count the lines of each package module and their total, in two columns.

The first column counts non-blank lines (a line holding only whitespace is
blank; comments and docstrings count).  The second counts code lines: the
non-blank lines that hold a token other than a comment and that lie outside
every module, class and function docstring.  Deleting comments lowers only
the first.

Usage: python scripts/source_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nhlattice"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The non-blank lines of ``text`` that hold code: no comment-only line, no docstring line."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                    and isinstance(doc.value.value, str)):
                lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    source = text.splitlines()
    return sum(1 for n in lines if source[n - 1].strip())


def main() -> None:
    total = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        count = sum(1 for line in text.splitlines() if line.strip())
        code = code_lines(text)
        total += count
        total_code += code
        print(f"{path.name:16s} {count:5d} {code:5d}")
    print(f"{'total':16s} {total:5d} {total_code:5d}")


if __name__ == "__main__":
    main()
