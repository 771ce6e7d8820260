"""The traced benchmark run wraps the veds functions named in
``perfbench/tracing.py``; a rename under ``src/`` must fail here rather than
as a crash of that run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module, function in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(module), function, None)), (
            f"{module}.{function}"
        )
