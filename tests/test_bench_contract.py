"""The benchmark's contract with the package.

``perfbench/`` imports names from ``qkdnet`` and, with ``--trace 1``,
patches functions inside its modules. A cleanup that drops one of those
names breaks the benchmark without failing any other test, so this module
checks every imported name, every patch target, that a traced op records
calls at every boundary its workload must reach, that each module's
``__all__`` and the package's re-exports agree, and that the assess path
loads neither the scheduler nor the harness.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _qkdnet_imports(path: Path):
    """(module, name) for every ``from qkdnet[...] import name`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qkdnet":
            for alias in node.names:
                yield node.module, alias.name


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_name_the_benchmark_imports_resolves():
    imported = [
        (path.relative_to(ROOT), module, name)
        for path in sorted(PERFBENCH.rglob("*.py"))
        for module, name in _qkdnet_imports(path)
    ]
    assert len(imported) >= 10  # the scan found the benchmark's imports
    missing = [entry for entry in imported if not _resolves(*entry[1:])]
    assert missing == []


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("worker")


@pytest.mark.parametrize("workload", ["simulate-demo7", "assess-attack", "assess-verdict"])
def test_every_trace_patch_target_exists_and_a_traced_op_passes(worker, workload, tmp_path):
    from tracing import Tracer, patched

    w = worker.WORKLOADS[workload](1, tmp_path)
    tracer = Tracer()
    targets = w.trace_targets(tracer)
    for module, attr, _ in targets:
        assert module.__name__.startswith("qkdnet.")
        assert callable(getattr(module, attr)), (module.__name__, attr)
    with patched(targets):
        _, _, fails, _, _ = w.op(0, tracer.call)
    assert fails == []
    # a boundary the op bypasses leaves its per-layer metrics unmeasured
    calls = {name: agg["calls"] for name, agg in tracer.totals().items()}
    assert [b for b in worker.REACHES[workload] if not calls.get(b)] == []


@pytest.mark.parametrize("module", ["graph_core", "harness", "scheduler", "security"])
def test_all_entries_are_defined(module):
    mod = importlib.import_module(f"qkdnet.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_reexports_only_public_names():
    import qkdnet

    reexported = list(qkdnet._EXPORTS.items())
    assert len(reexported) >= 30  # the table holds the package's exports
    stray = [
        (module, name)
        for name, module in reexported
        if name not in importlib.import_module(f"qkdnet.{module}").__all__
    ]
    assert stray == []


def test_every_export_is_its_submodules_object():
    import qkdnet

    assert qkdnet.__all__ == list(qkdnet._EXPORTS)
    assert set(qkdnet.__all__) <= set(dir(qkdnet))
    moved = [
        name
        for name, module in qkdnet._EXPORTS.items()
        if getattr(qkdnet, name) is not getattr(importlib.import_module(f"qkdnet.{module}"), name)
    ]
    assert moved == []
    with pytest.raises(AttributeError, match="no_such_name"):
        qkdnet.no_such_name


# The names the benchmark's assess workloads import from the package.
ASSESS_NAMES = ["Network", "Scheme", "demo7_network", "max_disjoint_paths", "KeyAssignment", "AttackSet"]


def test_assessment_names_never_load_the_scheduler():
    """``import qkdnet`` loads no submodule; the assess path loads neither
    the scheduler nor the harness; ``run`` loads both."""
    probe = (
        "import sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('qkdnet.'))\n"
        "import qkdnet\n"
        "print(loaded())\n"
        f"from qkdnet import {', '.join(ASSESS_NAMES)}\n"
        "print(loaded())\n"
        "from qkdnet import run\n"
        "print(loaded())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    )
    bare, assess, full = (ast.literal_eval(line) for line in out.stdout.splitlines())
    assert bare == []
    assert assess and not {"qkdnet.scheduler", "qkdnet.harness"} & set(assess)
    assert {"qkdnet.scheduler", "qkdnet.harness"} <= set(full)
