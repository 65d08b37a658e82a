"""The names the benchmark's traced run wraps must stay attributes of their modules.

``perfbench/spans.py`` replaces ``sphere_zeros.<module>.<name>`` at runtime
for each entry of its ``PATCHES`` table; a rename in the package would break
the traced run, so it is caught here in seconds.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCHES


def test_every_traced_name_resolves():
    patches = load_patches()
    assert patches
    for module, name, *_ in patches:
        mod = importlib.import_module(f"sphere_zeros.{module}")
        assert callable(getattr(mod, name, None)), f"sphere_zeros.{module}.{name}"
