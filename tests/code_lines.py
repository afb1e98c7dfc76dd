"""Count the code lines of each module of a source tree.

A code line holds a token other than a comment; docstrings (the first
statement of a module, class or function, when it is a string) are left
out.  Blank lines, comment lines and docstring lines do not count, so
reformatting a docstring or a comment leaves the count alone.

    python tests/code_lines.py [ROOT ...]

prints one line per module under each ROOT (default `src/deploysim`),
then the total.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_starts(source: str) -> set:
    """(row, column) where each docstring token of `source` starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: Path) -> int:
    """The number of code lines in the module at `path`."""
    with tokenize.open(path) as file:
        source = file.read()
    docstrings = docstring_starts(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED or (token.type == tokenize.STRING
                                      and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    total = 0
    for root in argv or ["src/deploysim"]:
        for path in sorted(Path(root).rglob("*.py")):
            count = code_lines(path)
            total += count
            print(f"{count:6,d}  {path}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
