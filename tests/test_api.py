# Tests for the package's public surface: exported names, the entry points
# the benchmark calls, the argument checks of the library entry points
# behind the CLI, and the imports of the runtime.
import ast
import sys
from pathlib import Path

import pytest

import umbra
from umbra import cli, logarithmic, numbers
from umbra.errors import PreconditionError
from umbra.suites import run_suite

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "umbra").glob("*.py"))


def test_public_names_resolve():
    missing = [name for name in umbra.__all__ if not hasattr(umbra, name)]
    assert missing == []
    assert "tail_bound" in umbra.__all__


@pytest.mark.parametrize("n_max", [0, -1])
def test_suite_size_must_be_positive(n_max):
    # no silent fallback to the default size, no "pass" after 0 checks
    with pytest.raises(PreconditionError, match="n_max must be a positive"):
        run_suite("vandermonde", n_max=n_max)


# The names perfbench/worker.py reads umbra's modules under.
WORKER_MODULES = {"u": umbra, "umbra": umbra, "cli": cli, "logarithmic": logarithmic, "numbers": numbers}


def _module_reads(tree) -> list:
    return [(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in WORKER_MODULES]


def test_benchmark_entry_points_resolve():
    # the benchmark's worker looks its entry points up at call time, so a
    # deleted one would fail benchmark jobs, not the import
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    reads = _module_reads(tree)
    assert {"generate_recurrence", "tail_bound", "main"} <= {attr for _, attr in reads}
    assert [f"{m}.{attr}" for m, attr in reads if not hasattr(WORKER_MODULES[m], attr)] == []
    stats = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "cache_stats")
    memoised = [getattr(WORKER_MODULES[m], attr) for m, attr in _module_reads(stats)]
    assert len(memoised) == 4
    assert [fn.__name__ for fn in memoised if not hasattr(fn, "cache_info")] == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        imported = {alias.asname or alias.name.partition(".")[0]: node.lineno
                    for node in imports if getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:  # a package re-exports what __all__ names
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
