"""Code lines of each module in src/obfloer, and their total.

A code line is a line that is not blank, is no comment line (its first
non-blank character is `#`) and lies in no docstring.  The docstrings
are found by an ast pass: the leading string statement of the module
and of each class and function.

    python tests/loc.py
"""

import ast
import glob
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src",
                   "obfloer")


def code_lines(text: str) -> int:
    """The number of code lines in one module's source text."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for k, line in enumerate(text.splitlines(), start=1)
               if line.strip() and not line.lstrip().startswith("#")
               and k not in docs)


def main(src: str = SRC) -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d}  {os.path.basename(path)}")
    print(f"{total:6d}  total")
    return total


if __name__ == "__main__":
    main(*sys.argv[1:])
