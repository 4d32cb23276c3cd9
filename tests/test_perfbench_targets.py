"""The benchmark's tracer wraps mirec functions by module and attribute name.

A name it cannot find is not an error there: the metrics built from it are
reported as unmeasured. This test makes a rename or deletion of a traced name
fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    unresolved = []
    for span, module_name, path, _, _ in load_tracer()._targets():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{span}: {module_name}.{path}")
    assert not unresolved, "traced names missing: " + ", ".join(unresolved)
