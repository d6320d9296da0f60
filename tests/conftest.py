import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def braid():
    """bench/braid.py, the seeded braid-closure generator, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "braid.py"
    spec = importlib.util.spec_from_file_location("bench_braid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
