r"""Mutate one module one site at a time; report the mutants no test kills.

    python3 tools/mutate.py src/nkji/statespace.py tests/test_statespace.py \
        tests/test_cli.py tests/test_acceptance.py

The first argument is a module under ``src``; the rest are passed to
pytest.  Each ``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``&``/``|`` and
``and``/``or`` outside type hints is flipped, and each nonzero float literal
outside [1e-3, 1e3] scaled by 10 and by 1/10, in a temporary copy of ``src``
(the working tree is never written), where the selection runs with ``-x``.
A mutant survives when the selection passes; each survivor is printed as
``line: expression -> mutant``.  The unmutated copy must pass first.  Exit
status: 0 when no mutant survives, 1 otherwise, 2 on a bad argument or a
failing unmutated run.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.BitAnd: ast.BitOr,
         ast.BitOr: ast.BitAnd, ast.And: ast.Or, ast.Or: ast.And}
#: seconds a pytest run may take before its mutant counts as killed
TIMEOUT = 600


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """Every flippable operator outside type hints, with its index for a
    comparison, and every extreme float literal, with each power of ten."""
    hints = {id(n) for node in ast.walk(tree)
             for hint in (getattr(node, "annotation", None), getattr(node, "returns", None))
             if hint is not None for n in ast.walk(hint)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in hints:
            found += [(node, k) for k, op in enumerate(node.ops) if type(op) in FLIPS]
        elif type(getattr(node, "op", None)) in FLIPS and id(node) not in hints:
            found.append((node, None))
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            found += [(node, k) for k in (1, -1) if not 1e-3 <= node.value <= 1e3]
    return found


def passes(src: Path, pytest_args: list[str]) -> bool:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *pytest_args], env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv: list[str]) -> int:
    module, pytest_args = Path(*argv[:1]).resolve(), argv[1:]
    root = next((d for d in module.parents if d.name == "src"), None)
    if not pytest_args or root is None or not module.is_file():
        print(__doc__, file=sys.stderr)
        return 2
    text = module.read_text()
    n_sites = len(sites(ast.parse(text)))
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(root, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / module.relative_to(root)
        if not passes(src, pytest_args):
            print("mutate: the unmutated copy fails the selection", file=sys.stderr)
            return 2
        for i in range(n_sites):
            tree = ast.parse(text)
            node, k = sites(tree)[i]
            before = ast.unparse(node)
            if isinstance(node, ast.Constant):
                node.value = float(Decimal(repr(node.value)).scaleb(k))
            elif k is None:
                node.op = FLIPS[type(node.op)]()
            else:
                node.ops[k] = FLIPS[type(node.ops[k])]()
            target.write_text(ast.unparse(tree))
            if passes(src, pytest_args):
                survivors += 1
                print(f"{node.lineno}: {before} -> {ast.unparse(node)}", flush=True)
    print(f"{survivors} of {n_sites} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
