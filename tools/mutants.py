"""One-operator mutation probe of ``src/zedsim`` against the tier-1 suite.

Each mutant changes one operator in one module: a comparison (``<`` and ``<=``,
``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``
swap), or an arithmetic operator (``+`` and ``-``, ``*`` and ``/`` swap; ``//``
becomes ``/`` and ``**`` becomes ``*``), augmented assignments included. The
operator is found with :mod:`ast` and rewritten in the source text, so the rest
of the module keeps its bytes. Each mutant gets its own copy of the repository,
where the tier-1 command runs with ``-x`` under a time cap, on two workers. A
mutant is ``killed`` when a test fails, ``survived`` when all pass and ``hung``
when the run outlives the cap::

    python tools/mutants.py                     # every mutant, comparisons first
    python tools/mutants.py --ops compare config.py sim.py:243

A full sweep runs tier-1 about 300 times, so tier-1 itself never runs it: pytest
does not collect this directory's files, whose names do not start with ``test_``.
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
from typing import List, NamedTuple

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


class Mutant(NamedTuple):
    path: Path
    line: int
    start: int  # byte offsets of the operator in the module
    end: int
    old: str
    new: str

    def __str__(self) -> str:
        return f"{self.path.name}:{self.line} {self.old} -> {self.new}"

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.new.encode() + source[self.end:]


def mutants(path: Path, kind: str) -> List[Mutant]:
    """Every mutant of one ``kind`` of operator, ``compare`` or ``arith``, in source order."""
    source = path.read_bytes()
    line_starts = [0]  # ast columns count UTF-8 bytes from these
    for text in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(text))
    pairs = []  # (left operand, right operand, operator type, swaps, "=" if augmented)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and kind == "compare":
            lefts = [node.left, *node.comparators]
            pairs += [(lefts[k], lefts[k + 1], type(op), _COMPARE, "")
                      for k, op in enumerate(node.ops)]
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH and kind == "arith":
            pairs.append((node.left, node.right, type(node.op), _ARITH, ""))
        elif isinstance(node, ast.AugAssign) and type(node.op) in _ARITH and kind == "arith":
            pairs.append((node.target, node.value, type(node.op), _ARITH, "="))
    found = []
    for left, right, op, swaps, suffix in pairs:
        # between the operands: the operator, with blanks, parentheses and line breaks
        start = line_starts[left.end_lineno - 1] + left.end_col_offset
        end = line_starts[right.lineno - 1] + right.col_offset
        between = source[start:end]
        core = between.strip(b"() \\\n")
        old = _TEXT[op] + suffix
        if re.sub(rb"\s+", b" ", core) != old.encode():
            raise ValueError(f"{path}:{left.end_lineno}: cannot find {old!r} in {between!r}")
        start += between.index(core)
        found.append(Mutant(path, left.end_lineno, start, start + len(core), old,
                            _TEXT[swaps[op]] + suffix))
    return sorted(found, key=lambda m: m.start)


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
    parser.add_argument("--ops", choices=("compare", "arith"),
                        help="only this kind of operator (default: comparisons, then arithmetic)")
    parser.add_argument("--cap", type=float, default=180.0,
                        help="seconds one tier-1 run may take before the mutant counts as hung")
    args = parser.parse_args(argv)
    kinds = [args.ops] if args.ops else ["compare", "arith"]
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
