"""Line counts of Python sources: ``python3 tools/loc.py PATH ...``.

Per ``.py`` file among the paths (directories are searched) and in all:
total lines, and code lines, those with a token outside comments and
docstrings."""
import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> tuple[int, int]:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, SCOPES) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


files = sorted(f for arg in map(Path, sys.argv[1:])
               for f in ([arg] if arg.is_file() else arg.rglob("*.py")))
sums = [0, 0]
print("  lines    code  file")
for f in files:
    counts = count(f.read_text())
    sums = [s + c for s, c in zip(sums, counts)]
    print(f"{counts[0]:7d} {counts[1]:7d}  {f}")
print(f"{sums[0]:7d} {sums[1]:7d}  total")
