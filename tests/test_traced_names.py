"""The benchmark tracer's targets exist in the package.

``bench/tracer.py`` wraps the functions and methods it lists by name when a
traced benchmark run starts, so a rename or a move inside ``factorint`` would
otherwise show only there. The tracer is imported by path and not installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("factorint_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = []
    for table in (tracer.FUNCTIONS, tracer.METHODS):
        for layer, names in table.items():
            target_module = importlib.import_module(f"factorint.{layer}")
            for name in names:
                target = target_module
                for part in name.split("."):
                    target = getattr(target, part, None)
                if not callable(target):
                    missing.append(f"{layer}.{name}")
    assert not missing, f"bench/tracer.py names what factorint lacks: {missing}"
