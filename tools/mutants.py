"""Mutation probe of ``src/zedsim`` against the tier-1 suite.

Each mutant makes one change to one module, of one of five classes:

- ``compare``: a comparison swaps (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in``);
- ``arith``: an arithmetic operator swaps (``+`` and ``-``, ``*`` and ``/``; ``//``
  becomes ``/`` and ``**`` becomes ``*``), augmented assignments included;
- ``statement``: one statement of a function body, nested blocks included,
  becomes ``pass`` (docstrings and ``pass`` itself are kept);
- ``clause``: one operand of an ``and`` or ``or`` is dropped;
- ``bool``: an ``and`` becomes ``or`` or the reverse (every operator of the
  expression at once), a ``not`` is dropped, or ``min`` and ``max`` swap.

The change is found with :mod:`ast` and rewritten in the source text, so the
rest of the module keeps its bytes, and a deleted span keeps its line breaks,
so every line keeps its number. Each mutant gets its own copy of the
repository, where the tier-1 command runs with ``-x`` under a time cap, on two
workers. A mutant is ``killed`` when a test fails, ``survived`` when all pass
and ``hung`` when the run outlives the cap::

    python tools/mutants.py                     # every mutant, class by class
    python tools/mutants.py --ops statement config.py sim.py:243

A full sweep runs tier-1 over a thousand times, so tier-1 itself never runs it:
pytest does not collect this directory's files, whose names do not start with
``test_``.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, NamedTuple, Tuple

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "zedsim"
WORKERS = 2
MEMORY_BYTES = 2 << 30
# the tier-1 command with -x, in an address space of MEMORY_BYTES, so a mutant that
# records without end fails on MemoryError instead of taking the machine's memory
TIER1 = [sys.executable, "-c",
         "import os, resource, sys; resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
         "os.execv(sys.argv[1], sys.argv[1:])" % (MEMORY_BYTES, MEMORY_BYTES),
         sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]

_COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
            ast.In: ast.NotIn, ast.NotIn: ast.In}
_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.FloorDiv: ast.Div, ast.Pow: ast.Mult}
_TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
         ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
         ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
         ast.FloorDiv: "//", ast.Pow: "**"}
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench-*")


KINDS = ("compare", "arith", "statement", "clause", "bool")


class Mutant(NamedTuple):
    path: Path
    line: int
    start: int  # byte offsets of the rewritten span in the module
    end: int
    old: str
    new: str

    def __str__(self) -> str:
        old, new = (" ".join(text.replace("\\\n", " ").split()) for text in (self.old, self.new))
        old = old if len(old) <= 60 else old[:57] + "..."
        return f"{self.path.name}:{self.line} {old} -> {new or 'nothing'}"

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.new.encode() + source[self.end:]


def _blank(text: bytes) -> str:
    """What a deleted span leaves: a blank, and each of its line breaks escaped, so
    lines keep their numbers inside brackets or out."""
    return " " + "\\\n" * text.count(b"\n")


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def mutants(path: Path, kind: str) -> List[Mutant]:
    """Every mutant of one ``kind`` (one of ``KINDS``) in the module, in source order."""
    source = path.read_bytes()
    line_starts = [0]  # ast columns count UTF-8 bytes from these
    for text in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(text))

    def start_of(node) -> int:
        return line_starts[node.lineno - 1] + node.col_offset

    def end_of(node) -> int:
        return line_starts[node.end_lineno - 1] + node.end_col_offset

    def between(left, right, old: str) -> Tuple[int, int]:
        """The span of operator ``old`` between two operands, found among blanks,
        parentheses and line breaks."""
        start, end = end_of(left), start_of(right)
        text = source[start:end]
        core = text.strip(b"() \\\n")
        if re.sub(rb"\s+", b" ", core) != old.encode():
            raise ValueError(f"{path}:{left.end_lineno}: cannot find {old!r} in {text!r}")
        start += text.index(core)
        return start, start + len(core)

    def operators(node: ast.BoolOp) -> List[Tuple[int, int]]:
        old = "and" if isinstance(node.op, ast.And) else "or"
        return [between(a, b, old) for a, b in zip(node.values, node.values[1:])]

    tree = ast.parse(source)
    found = []  # (line, start, end, replacement)
    if kind in ("compare", "arith"):
        pairs = []  # (left operand, right operand, operator type, swaps, "=" if augmented)
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and kind == "compare":
                lefts = [node.left, *node.comparators]
                pairs += [(lefts[k], lefts[k + 1], type(op), _COMPARE, "")
                          for k, op in enumerate(node.ops)]
            elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH and kind == "arith":
                pairs.append((node.left, node.right, type(node.op), _ARITH, ""))
            elif isinstance(node, ast.AugAssign) and type(node.op) in _ARITH and kind == "arith":
                pairs.append((node.target, node.value, type(node.op), _ARITH, "="))
        for left, right, op, swaps, suffix in pairs:
            start, end = between(left, right, _TEXT[op] + suffix)
            found.append((left.end_lineno, start, end, _TEXT[swaps[op]] + suffix))
    elif kind == "statement":
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        kept = {id(f.body[0]) for f in functions if _is_docstring(f.body[0])}
        statements = {}  # by offset: a nested function's statements are walked twice
        for node in (node for f in functions for node in ast.walk(f)):
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)  # an expression's, or a class's, is no block
                if isinstance(block, list) and not isinstance(node, ast.ClassDef):
                    statements.update((start_of(stmt), stmt) for stmt in block
                                      if id(stmt) not in kept and not isinstance(stmt, ast.Pass))
        for stmt in statements.values():
            found.append((stmt.lineno, start_of(stmt), end_of(stmt),
                          "pass" + "\n" * (stmt.end_lineno - stmt.lineno)))
    elif kind == "clause":
        for node in ast.walk(tree):
            if isinstance(node, ast.BoolOp):
                ops = operators(node)
                # a dropped operand takes the operator after it; the last, the one before
                spans = [(start_of(node) if k == 0 else ops[k - 1][1], op_end)
                         for k, (_, op_end) in enumerate(ops)]
                spans.append((ops[-1][0], end_of(node)))
                found += [(value.lineno, start, end, _blank(source[start:end]))
                          for value, (start, end) in zip(node.values, spans)]
    else:
        for node in ast.walk(tree):
            if isinstance(node, ast.BoolOp):  # every operator of the expression swaps at once
                ops = operators(node)
                swapped = b"or" if isinstance(node.op, ast.And) else b"and"
                start, end = ops[0][0], ops[-1][1]
                text = source[start:end]
                for op_start, op_end in reversed(ops):
                    text = text[:op_start - start] + swapped + text[op_end - start:]
                found.append((node.values[0].end_lineno, start, end, text.decode()))
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                start = start_of(node)
                if source[start:start + 3] != b"not":
                    raise ValueError(f"{path}:{node.lineno}: cannot find 'not'")
                found.append((node.lineno, start, start + 3, ""))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in ("min", "max"):
                swapped = "max" if node.func.id == "min" else "min"
                found.append((node.lineno, start_of(node.func), end_of(node.func), swapped))
    result = []
    for line, start, end, new in found:
        mutant = Mutant(path, line, start, end, source[start:end].decode(), new)
        try:
            ast.parse(mutant.apply(source))
        except SyntaxError as exc:
            raise ValueError(f"{mutant}: the mutant does not parse") from exc
        result.append(mutant)
    return sorted(result, key=lambda m: m.start)


def run(mutant: Mutant, cap: float) -> str:
    """``killed``, ``survived`` or ``hung``: tier-1 on a fresh copy holding the mutant."""
    with tempfile.TemporaryDirectory(prefix="zedsim-mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(REPO, copy, ignore=_IGNORE)
        target = copy / mutant.path.relative_to(REPO)
        target.write_bytes(mutant.apply(mutant.path.read_bytes()))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.Popen(TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            status = proc.wait(timeout=cap)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the suite and any process it started
            proc.wait()
            return "hung"
    return "survived" if status == 0 else "killed"


def _selected(mutant: Mutant, targets: List[str]) -> bool:
    """No targets selects all; ``sim.py`` selects a module, ``sim.py:243`` one line."""
    return not targets or any(t in (mutant.path.name, f"{mutant.path.name}:{mutant.line}")
                              for t in targets)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="*",
                        help="module or module:line to mutate (default: all)")
    parser.add_argument("--ops", choices=KINDS,
                        help="only this class of mutant (default: every class, in this order)")
    parser.add_argument("--cap", type=float, default=180.0,
                        help="seconds one tier-1 run may take before the mutant counts as hung")
    args = parser.parse_args(argv)
    kinds = [args.ops] if args.ops else KINDS
    todo = [m for kind in kinds for path in sorted(PACKAGE.glob("*.py"))
            for m in mutants(path, kind) if _selected(m, args.targets)]
    counts = {"killed": 0, "survived": 0, "hung": 0}
    with ThreadPoolExecutor(WORKERS) as pool:
        for mutant, outcome in zip(todo, pool.map(lambda m: run(m, args.cap), todo)):
            counts[outcome] += 1
            print(f"{mutant}: {outcome}", flush=True)
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
