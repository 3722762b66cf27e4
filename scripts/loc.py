#!/usr/bin/env python3
"""Print the code lines of each src/chainpebble module and their total.

A code line holds at least one token that is not a comment; lines inside a
docstring (the string that opens a module, class or function body) and
blank lines do not count.  It takes no options:

    python3 scripts/loc.py
"""

import argparse
import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chainpebble"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Lines of the module at path that hold code, not docstrings,
    comments or blanks."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem:<10} {count:>5}")
    print(f"{'total':<10} {total:>5}")


if __name__ == "__main__":
    main()
