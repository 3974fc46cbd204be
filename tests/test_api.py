# Tests for the package's public surface: exported names and the
# argument checks of the library entry points behind the CLI, and the
# standard-library-only runtime.
import ast
import sys
from pathlib import Path

import pytest

import umbra
from umbra.errors import PreconditionError
from umbra.suites import run_suite


def test_public_names_resolve():
    missing = [name for name in umbra.__all__ if not hasattr(umbra, name)]
    assert missing == []
    assert "tail_bound" in umbra.__all__


@pytest.mark.parametrize("n_max", [0, -1])
def test_suite_size_must_be_positive(n_max):
    # no silent fallback to the default size, no "pass" after 0 checks
    with pytest.raises(PreconditionError, match="n_max must be a positive"):
        run_suite("vandermonde", n_max=n_max)


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in sorted((Path(__file__).parents[1] / "src" / "umbra").glob("*.py")):
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
