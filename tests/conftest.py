"""Fixtures shared by the test modules."""
import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_on_pythonpath(monkeypatch):
    """Put this checkout's src first on PYTHONPATH, so a child interpreter
    imports the umbra under test however pytest itself was started."""
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    )
