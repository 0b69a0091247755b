"""Structural checks on ``src/repro``, read with ``ast`` and as text.

Every module must be reachable from an artifact: a job (``jobs/*.py``)
or the benchmark (``gmsbench/*.py``). Imports inside functions count and
nothing is executed. A module that only tests reach has no artifact
that runs it: delete it, or add it back together with the job that
reproduces its figure or table.

Every per-root Python kernel runs through ``Graph.per_root``, and the
modules its workers import do not import pandas. The set classes of
``repro.core.sets`` do not import pyspark.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The DuckDB oracle checks results in tests; no artifact needs it.
TEST_ONLY = {"repro.oracle"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _repro_imports(path: Path, modules: dict[str, Path]) -> set[str]:
    """Modules of ``repro`` that ``path`` imports, with their packages."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module)
            # ``from repro.graphs import generators`` imports a module.
            found.update(f"{node.module}.{a.name}" for a in node.names)
    out = set()
    for name in found:
        parts = name.split(".")
        out.update(p for i in range(1, len(parts) + 1)
                   if (p := ".".join(parts[:i])) in modules)
    return out


def test_every_module_is_reached_from_an_artifact():
    modules = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
    roots = sorted((ROOT / "jobs").glob("*.py")) + sorted((ROOT / "gmsbench").glob("*.py"))
    assert roots
    reached, todo = set(), set().union(*(_repro_imports(p, modules) for p in roots))
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= _repro_imports(modules[name], modules) - reached
    orphans = sorted(set(modules) - reached - TEST_ONLY)
    assert not orphans, f"modules no job or gmsbench file imports: {orphans}"
    assert TEST_ONLY <= set(modules)


# What ships a Python kernel to the executors.
RUNNER_CALLS = ("parallelize", "broadcast(", "mapInPandas")


def test_per_root_is_the_only_kernel_runner():
    """A second runner would fork the place where per-root kernels are tuned."""
    graph = SRC / "repro" / "core" / "graph.py"
    per_root = next(n for n in ast.walk(ast.parse(graph.read_text()))
                    if isinstance(n, ast.FunctionDef) and n.name == "per_root")
    inside = range(per_root.lineno, per_root.end_lineno + 1)
    lines = graph.read_text().splitlines()
    for call in RUNNER_CALLS[:2]:
        assert any(call in lines[i - 1] for i in inside), call
    outside = [f"{p.relative_to(ROOT)}:{i}: {line.strip()}"
               for p in sorted((SRC / "repro").rglob("*.py"))
               for i, line in enumerate(p.read_text().splitlines(), 1)
               if any(c in line for c in RUNNER_CALLS)
               and not (p == graph and i in inside)]
    assert not outside, "outside Graph.per_root:\n" + "\n".join(outside)


# What a per-root kernel's Python worker imports: the worker, then the kernel.
WORKER_IMPORTS = ("pyspark.worker", "repro.mining.bron_kerbosch",
                  "repro.mining.kclique", "repro.mining.subgraph_iso",
                  "repro.mining.triangles")


def _loaded(modules: tuple[str, ...], package: str) -> str:
    """The modules of ``package`` that a fresh interpreter loads to import ``modules``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    code = (f"import sys, {', '.join(modules)}; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_kernel_workers_do_not_import_pandas():
    """pandas and pyarrow take ~0.5 s to import in every fresh Python worker."""
    assert _loaded(WORKER_IMPORTS, "pandas") == "[]"


def test_set_layer_does_not_import_pyspark():
    """The kernel-side sets are the only set algebra in Python; Spark stays out of it."""
    assert _loaded(("repro.core.sets",), "pyspark") == "[]"
