"""Print the line and code-line counts of src/ringaudit/*.py, the sizes
ROADMAP.md tracks.

A code line holds a token that is not a comment and lies outside every
docstring (the leading string of a module, class or function, found with
ast); blank lines, comments and docstrings are not code.

Usage: python tools/src_lines.py [DIRECTORY]   (default: src/ringaudit)
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one source file."""
    text = path.read_text()
    docstrings = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in SKIPPED:
                code.update(line for line in range(token.start[0], token.end[0] + 1) if line not in docstrings)
    return len(text.splitlines()), len(code)


def main(directory: str = "src/ringaudit") -> None:
    total = [0, 0]
    for path in sorted(Path(directory).glob("*.py")):
        lines, code = counts(path)
        total[0] += lines
        total[1] += code
        print(f"{path.name:16s} {lines:6d} lines {code:6d} code")
    print(f"{'total':16s} {total[0]:6d} lines {total[1]:6d} code")


if __name__ == "__main__":
    main(*sys.argv[1:])
