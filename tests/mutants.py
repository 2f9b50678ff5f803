"""Mutation analysis: would the tests notice a wrong fast path?

Usage, from the repository root::

    python tests/mutants.py qkdnet.graph_core tests/test_graph_core.py \
        tests/test_security.py --function enumerate_simple_paths --function Network.require_endpoints

Each mutant changes one site in one function of MODULE (DeMillo, Lipton
and Sayward, IEEE Computer 1978): a comparison swapped (``<``/``<=``,
``>``/``>=``, ``==``/``!=``, ``in``/``not in``, ``is``/``is not``),
``and``/``or`` swapped, or an integer constant raised by one. Without
``--function`` every function and method of MODULE is mutated.

The repository is copied once to a temporary directory. Each mutant is
written there, the module unparsed from its syntax tree, and the TESTS run
there with ``pytest -x``. The mutant is killed when they fail or time out,
and survives when they pass. The working tree is never written. A mutant
listed in ``tests/equivalent_mutants.txt`` (``MODULE | MUTANT | REASON``,
the mutant as this script prints it) cannot be told apart by any test and
is counted as equivalent. The exit status is 1 when any other mutant
survives. pytest does not collect this file: its name does not start with
``test_``.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).resolve().parent / "equivalent_mutants.txt"
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
}
MEMORY_LIMIT = 2 << 30  # bytes of address space per test run, so a runaway mutant fails alone


def functions(tree: ast.Module):
    """``(qualified name, node)`` for each top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


def mutations(tree: ast.Module, wanted: set[str]):
    """``(name, flip)`` per mutant: ``flip()`` applies the mutant to ``tree``
    in place, and a second call undoes it."""
    names = set()
    for qual, fn in functions(tree):
        if wanted and qual not in wanted:
            continue
        for node in ast.walk(fn):
            flips = [
                _attr_flip(child, "value", child.value + 1)
                for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.Constant) and type(child.value) is int
            ]
            if isinstance(node, ast.Compare):
                flips += [_op_flip(node.ops, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
            elif isinstance(node, ast.BoolOp):
                flips.append(_attr_flip(node, "op", SWAPS[type(node.op)]()))
            for flip in flips:
                before = ast.unparse(node)
                flip()
                after = ast.unparse(node)
                flip()
                name = f"{qual}+{node.lineno - fn.lineno}: {before.splitlines()[0]} -> {after.splitlines()[0]}"
                while name in names:
                    name += "'"
                names.add(name)
                yield name, flip


def _op_flip(ops: list[ast.cmpop], i: int):
    def flip():
        ops[i] = SWAPS[type(ops[i])]()
    return flip


def _attr_flip(node: ast.AST, attr: str, other):
    def flip():
        nonlocal other
        old = getattr(node, attr)
        setattr(node, attr, other)
        other = old
    return flip


def equivalents(module: str) -> dict[str, str]:
    """The mutants of ``module`` listed as equivalent, each with its reason."""
    out = {}
    for line in EQUIVALENT.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            mod, name, reason = (part.strip() for part in line.split(" | "))
            if mod == module:
                out[name] = reason
    return out


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> tuple[bool, float]:
    """Run ``tests`` in ``copy``: whether they passed, and how long it took."""
    # no bytecode cache: a .pyc is keyed on the source's size and whole-second
    # mtime, so it could outlive a mutant of the same size written in that second
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout, preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("module", help="dotted module under src/, e.g. qkdnet.graph_core")
    p.add_argument("tests", nargs="+", help="test files or node ids, relative to the repository root")
    p.add_argument(
        "--function", action="append", default=[],
        help="mutate only this function (Class.method for a method); repeatable",
    )
    args = p.parse_args(argv)

    rel = Path("src", *args.module.split(".")).with_suffix(".py")
    if not (ROOT / rel).is_file():
        p.error(f"no module {args.module} under src/")
    tree = ast.parse((ROOT / rel).read_text())
    known = {qual for qual, _ in functions(tree)}
    unknown = sorted(set(args.function) - known)
    if unknown:
        p.error(f"no function {', '.join(unknown)} in {args.module}")
    equivalent = equivalents(args.module)
    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"),
        )
        target = copy / rel
        target.write_text(ast.unparse(tree))
        ok, base = run_tests(copy, args.tests, None)
        if not ok:
            print("the tests fail on the unmutated module; nothing to measure", file=sys.stderr)
            return 2
        timeout = 3 * base + 30
        print(f"unmutated run: {base:.1f} s; a mutant times out after {timeout:.0f} s", flush=True)
        for name, flip in mutations(tree, set(args.function)):
            flip()
            target.write_text(ast.unparse(tree))
            flip()
            ok, took = run_tests(copy, args.tests, timeout)
            if not ok:
                verdict = "killed"
            elif name in equivalent:
                verdict = "equivalent"
            else:
                verdict = "survived"
            counts[verdict] += 1
            print(f"{verdict:10} {took:6.1f} s  {name}", flush=True)
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
