# Tests for the package's public surface: exported names, the entry points
# the benchmark calls, the argument checks of the library entry points
# behind the CLI, and the imports of the runtime.
import ast
import json
import subprocess
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


# The modules only the CLI needs: `import umbra` and every library call
# leave them uncompiled, since each fresh process pays for what it imports.
CLI_ONLY = ("umbra.parsing", "umbra.suites", "umbra.cli")


def _in_fresh_interpreter(code: str):
    """The JSON a child interpreter prints after running ``code``."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.usefixtures("src_on_pythonpath")
def test_import_loads_no_cli_layer_and_defers_its_names():
    seen = _in_fresh_interpreter(f"""
import json, sys
import umbra
loaded = [m for m in {CLI_ONLY!r} if m in sys.modules]
listed = sorted(set(umbra.__all__) - set(dir(umbra)))
loaded_by_dir = [m for m in {CLI_ONLY!r} if m in sys.modules]
try:
    umbra.no_such_name
    missing = None
except AttributeError as err:
    missing = str(err)
star = {{}}
exec("from umbra import *", star)
from umbra import parsing, suites
differ = [name for module, names in ((parsing, ("elaborate", "parse_operator", "pretty")),
                                     (suites, ("SUITE_NAMES", "run_suite")))
          for name in names if getattr(umbra, name) is not getattr(module, name)]
print(json.dumps({{"loaded": loaded, "listed": listed, "loaded_by_dir": loaded_by_dir,
                  "missing": missing, "unbound": sorted(set(umbra.__all__) - set(star)),
                  "differ": differ}}))
""")
    assert seen["loaded"] == []
    assert seen["listed"] == [] and seen["loaded_by_dir"] == []
    assert "no_such_name" in seen["missing"]
    assert seen["unbound"] == []
    assert seen["differ"] == []


@pytest.mark.usefixtures("src_on_pythonpath")
def test_library_calls_load_no_cli_layer():
    # one small call of each entry point the benchmark's library jobs reach;
    # a core module that imported parsing or suites would put their compile
    # back into every library start
    loaded = _in_fresh_interpreter(f"""
import json, sys
import umbra as u
abel = u.catalog("abel", {{"b": 1}}, order=8)
fd = u.catalog("forward_difference", order=8)
u.compositional_inverse(abel.series)
u.expand_in_basis(u.catalog("shift", {{"a": 3}}, order=8).series, fd.series, k_max=6)
u.connection_constants(u.catalog("backward_difference", order=8), fd, 6)
u.lagrange_inversion(abel.series, u.monomial(1), 6)
u.generate_transfer(abel, 6).terms(6)
u.generate_recurrence(abel, 6).terms(6)
window = u.log_sequence(u.catalog("forward_difference", order=7), -2, 6)
u.newton_expand(u.log_sequence(fd, -1, 6), depth=4)
u.evaluate_numeric(window, 3, 20)
u.tail_bound(window, 3, 20)
u.log_lower_factorial(3, depth=4)
print(json.dumps([m for m in {CLI_ONLY!r} if m in sys.modules]))
""")
    assert loaded == []
