"""Architecture contracts, enforced by AST inspection and in fresh interpreters.

``import-linter`` is not a dependency of this repo, so the layering
rules the unified engine refactor established are checked here with
:mod:`ast` instead -- same contracts, stdlib only:

1. **Protocols stay driver-agnostic** -- nothing under
   ``repro.protocols`` imports ``repro.engine`` or
   ``repro.experiments`` (a protocol must be definable without knowing
   how it will be driven).
2. **One execution entry point** -- ``repro.engine`` is the only call
   site of the raw drivers (``replay`` / ``replay_fused`` /
   ``run_online`` / ``run_coordinated``) outside ``repro.core`` /
   ``repro.workload`` internals and their direct unit tests.  The CLI,
   the sweep runner, the audit, the benchmarks and the examples all go
   through ``Engine.run``.  ``benchmarks/bench_engine.py`` is the one
   documented exception: it calls ``replay_fused`` directly to measure
   the engine layer's overhead against the raw loop.

Two more contracts are checked at run time, each in a fresh
interpreter with ``PYTHONPATH=src``:

3. **Lean start-up** -- importing ``repro`` / ``repro.cli``, running a
   serial cell and serving a pooled sweep load none of
   :data:`HEAVY_MODULES`, in the parent or in a pool worker.  Every
   spawned worker re-imports ``repro``, so a heavy top-level import is
   paid once per worker before it does any work; optional libraries
   are imported at their call site instead.
4. **Declared dependencies only** -- with scipy (a test-only extra)
   unimportable, ``import repro`` and a serial figure still work, and
   :func:`repro.analysis.confidence_interval` names scipy in its
   ``ImportError``.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: The raw driver entry points consumers must not call directly.
RAW_DRIVERS = frozenset(
    {
        "replay",
        "replay_fused",
        "replay_vectorized",
        "replay_vectorized_batch",
        "replay_many",
        "run_online",
        "run_coordinated",
    }
)

#: Consumer surfaces bound by contract 2 (directories scanned
#: recursively, files taken as-is).
CONSUMER_PATHS = (
    SRC / "cli.py",
    SRC / "experiments",
    SRC / "obs",
    SRC / "analysis",
    SRC / "testing",
    REPO / "benchmarks",
    REPO / "examples",
)

#: The one sanctioned raw call site outside the engine: the
#: engine-overhead tripwire bench (see its module docstring).
RAW_CALL_ALLOWLIST = frozenset({REPO / "benchmarks" / "bench_engine.py"})


def _python_files(path: Path):
    if path.is_file():
        yield path
    else:
        yield from sorted(path.rglob("*.py"))


def _imported_modules(tree: ast.AST):
    """Every module named by an import statement, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def _called_names(tree: ast.AST):
    """(name, line) of every call target, by Name or trailing attribute."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            yield func.id, node.lineno
        elif isinstance(func, ast.Attribute):
            yield func.attr, node.lineno


def test_protocols_never_import_engine_or_experiments():
    offenders = []
    for path in _python_files(SRC / "protocols"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module in _imported_modules(tree):
            if module.startswith(("repro.engine", "repro.experiments")):
                offenders.append(f"{path.relative_to(REPO)}: imports {module}")
    assert not offenders, "\n".join(offenders)


def test_consumers_never_call_raw_drivers():
    offenders = []
    for root in CONSUMER_PATHS:
        for path in _python_files(root):
            if path in RAW_CALL_ALLOWLIST:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, lineno in _called_names(tree):
                if name in RAW_DRIVERS:
                    offenders.append(
                        f"{path.relative_to(REPO)}:{lineno}: calls {name}()"
                    )
    assert not offenders, (
        "raw driver calls outside repro.engine (route these through "
        "Engine.run / repro.engine.execute):\n" + "\n".join(offenders)
    )


def test_consumers_do_not_even_import_raw_drivers():
    """Importing the raw entry points is the first step to calling
    them; consumers should not hold a reference at all (the allowlisted
    overhead bench aside)."""
    offenders = []
    for root in CONSUMER_PATHS:
        for path in _python_files(root):
            if path in RAW_CALL_ALLOWLIST:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module in (
                    "repro",
                    "repro.core.replay",
                    "repro.workload.driver",
                    "repro.core.online",
                ):
                    for alias in node.names:
                        if alias.name in RAW_DRIVERS:
                            offenders.append(
                                f"{path.relative_to(REPO)}:{node.lineno}: "
                                f"imports {alias.name} from {node.module}"
                            )
    assert not offenders, "\n".join(offenders)


def test_engine_is_importable_without_experiments():
    """repro.engine must not depend on repro.experiments (the sweep
    layer sits above the engine, never the other way around)."""
    offenders = []
    for path in _python_files(SRC / "engine"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module in _imported_modules(tree):
            if module.startswith("repro.experiments"):
                offenders.append(f"{path.relative_to(REPO)}: imports {module}")
    assert not offenders, "\n".join(offenders)


def test_contract_allowlist_is_current():
    """The allowlisted file must still exist and still call the raw
    driver it is allowlisted for -- otherwise the allowlist is stale."""
    (path,) = RAW_CALL_ALLOWLIST
    assert path.exists()
    tree = ast.parse(path.read_text(), filename=str(path))
    assert any(name == "replay_fused" for name, _ in _called_names(tree))


#: Libraries no process start on the figure pipeline may import: scipy
#: and networkx are optional (one call site each), hypothesis and
#: pytest are test-only.
HEAVY_MODULES = ("scipy", "networkx", "hypothesis", "pytest")

#: Expression listing which of them the evaluating process has loaded.
LOADED_HEAVY = (
    f"sorted(m for m in {HEAVY_MODULES!r} if m in __import__('sys').modules)"
)


def _run_fresh(code: str) -> str:
    """Run *code* in a fresh interpreter on ``src``; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_serial_cell_load_no_heavy_module():
    out = _run_fresh(
        f"""
        import repro
        import repro.cli
        import repro.experiments.figures
        import repro.experiments.sharded
        from repro.engine import RunSpec, execute
        from repro.workload import WorkloadConfig

        result = execute(
            RunSpec(
                workload=WorkloadConfig(t_switch=100.0, sim_time=200.0, seed=0),
                engine="fused",
            )
        )
        assert result.engine_kind == "fused" and result.outcomes
        print({LOADED_HEAVY})
        """
    )
    assert out.strip() == "[]"


def test_pool_worker_loads_no_heavy_module():
    """A pooled sweep's workers stay lean.  The probe is a stdlib
    callable (``eval`` of a ``sys.modules`` query) submitted to the
    sweep's own pool, so the check imports nothing into the worker.
    The sweep uses two workers: a width of 0 or 1 runs serially."""
    out = _run_fresh(
        f"""
        from repro.experiments import SweepConfig, run_sweep
        from repro.experiments import runner
        from repro.workload import WorkloadConfig

        config = SweepConfig(
            base=WorkloadConfig(p_switch=0.8, sim_time=200.0),
            t_switch_values=(100.0, 800.0),
            seeds=(0,),
            workers=2,
            use_cache=False,
            progress=False,
        )
        assert run_sweep(config).complete
        pool = runner._get_pool(config.workers)
        probe = "(__import__('os').getpid(), {LOADED_HEAVY})"
        seen = dict(pool.submit(eval, probe).result(timeout=60) for _ in range(4))
        runner.shutdown_pool()
        print(sorted(m for loaded in seen.values() for m in loaded))
        """
    )
    assert out.strip() == "[]"


def test_declared_dependencies_suffice_without_scipy():
    out = _run_fresh(
        """
        import sys


        class RefuseScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ModuleNotFoundError(f"No module named {name!r}")
                return None


        sys.meta_path.insert(0, RefuseScipy())

        import repro
        from repro.analysis import confidence_interval, summarize
        from repro.experiments.figures import run_figure

        result = run_figure(
            6, sim_time=500.0, seeds=(0,), workers=0, use_cache=False, progress=False
        )
        assert result.complete and not result.errors
        assert summarize([1.0, 2.0]).mean == 1.5
        try:
            confidence_interval([1.0, 2.0])
        except ImportError as exc:
            print(exc)
        else:
            raise AssertionError("confidence_interval ran without scipy")
        assert "scipy" not in sys.modules
        """
    )
    assert "scipy" in out
