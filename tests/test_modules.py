"""Every module under ``src/repro`` must be reachable from an artifact.

An artifact is a job (``jobs/*.py``) or the benchmark (``gmsbench/*.py``).
Imports are read with ``ast``, so imports inside functions count and
nothing is executed. A module that only tests reach has no artifact
that runs it: delete it, or add it back together with the job that
reproduces its figure or table.
"""
import ast
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
