"""Import the job modules (jobs/ is not a package) for the benchmarks.

A benchmark runs its job with ``job_kwargs``, the kwargs
``jobs/run_all.py::JOBS`` gives it, so the benchmarks and the committed
``results/`` share one configuration.
"""
import importlib.util
import sys
from pathlib import Path

_JOBS = Path(__file__).resolve().parent.parent / "jobs"


def load_job(name: str):
    """Load ``jobs/<name>.py`` as a module and return it."""
    spec = importlib.util.spec_from_file_location(name, _JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def job_kwargs(name: str) -> dict:
    """The kwargs ``jobs/run_all.py::JOBS`` passes to ``jobs/<name>.py``."""
    return dict(load_job("run_all").JOBS)[name]
