"""Count the code lines of the package: the lines of src/ltsdeform/*.py
that are not blank, comment or docstring lines, per module and in total.

`wc -l` counts docstrings too, which document the library rather than
grow it.  A line counts when it holds any token other than a comment,
outside the docstrings of the module, its classes and its functions.

    python3 scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ltsdeform"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers spanned by the docstrings of the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """(code lines, all lines) of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source))), len(source.splitlines())


def main():
    total = [0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        code, every = code_lines(path.read_text())
        total[0] += code
        total[1] += every
        print("%-16s %5d of %5d" % (path.name, code, every))
    print("%-16s %5d of %5d" % ("total", *total))


if __name__ == "__main__":
    main()
