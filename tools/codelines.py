#!/usr/bin/env python3
"""Code lines per module and in total.

    python3 tools/codelines.py src/replisim

A code line is a line that holds a token other than a comment, and that no
docstring covers (the first statement of a module, class or function, when
it is a string).  Blank lines and comment-only lines are not code; a line
that a multi-line string spans is.  The lines are read with ``tokenize``
and the docstrings with ``ast``.  Each argument is a ``.py`` file or a
directory, searched recursively; modules print in path order, then the
total.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: str) -> int:
    """The number of code lines in the module at ``path``."""
    with open(path, "rb") as f:
        source = f.read()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source, path)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def modules(paths: list) -> list:
    """Every ``.py`` file named in ``paths`` or under a directory there, sorted."""
    found = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                found += [os.path.join(root, name) for name in files if name.endswith(".py")]
        else:
            found.append(path)
    return sorted(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="a .py file or a directory")
    args = parser.parse_args(argv)
    total = 0
    for path in modules(args.paths):
        n = code_lines(path)
        total += n
        print(f"{n:>7,}  {path}")
    print(f"{total:>7,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
