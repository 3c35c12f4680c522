"""Count the code lines of the topkdoc package.

A code line is a line of src/topkdoc/*.py that holds a token other than a
comment, a line break, an indent or a docstring.  A docstring is the string
that opens a module, class or function body.  A token that spans several
lines, such as a multi-line string, counts once, on its first line.

Usage: python tools/code_lines.py [package directory]

Prints each file's count and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The first line of every docstring in an ast module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.add(first.lineno)
    return lines


def code_lines(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        line = tok.start[0]
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and line in docstrings):
            continue
        lines.add(line)
    return len(lines)


def main(argv):
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "topkdoc"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
