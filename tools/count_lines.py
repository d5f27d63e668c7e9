"""Count the code lines of ``src/`` in two source trees, file by file.

    python3 tools/count_lines.py OLD_TREE NEW_TREE

A code line is a line that holds a Python token other than a comment.  Blank
lines, comment lines and the docstrings of modules, classes and functions do
not count; a statement or expression that spans several lines counts each of
its lines.  The tool prints the count of every ``.py`` file under ``src/`` in
either tree, then the totals and their difference; it exits 2 when a tree has
no ``src`` directory.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of ``source``, a Python module."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_tree(root: Path) -> dict[str, int]:
    """Code lines of each ``.py`` file in the ``src`` directory of the tree ``root``, by relative path."""
    src = root / "src"
    return {path.relative_to(src).as_posix(): code_lines(path.read_text())
            for path in sorted(src.rglob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src").is_dir():
            print(f"count_lines.py: error: {tree} has no src directory", file=sys.stderr)
            return 2
    old, new = count_tree(args.old), count_tree(args.new)
    width = max(map(len, old | new))
    for name in sorted(old | new):
        a, b = old.get(name, 0), new.get(name, 0)
        print(f"{name:<{width}}  {a:6d} {b:6d} {b - a:+6d}")
    a, b = sum(old.values()), sum(new.values())
    print(f"{'total':<{width}}  {a:6d} {b:6d} {b - a:+6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
