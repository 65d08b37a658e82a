"""The names the benchmark's traced run wraps must stay attributes of their modules.

``perfbench/spans.py`` replaces ``sphere_zeros.<module>.<name>`` at runtime
for each entry of its ``PATCHES`` table; a rename in the package would break
the traced run, and a name its module no longer calls would leave its
span at 0; both are caught here in seconds.
"""

import importlib
import importlib.util
from pathlib import Path

from sphere_zeros.cli import main

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


# One small run of each subcommand the benchmark traces.
OPS = (
    ["average", "--degree", "1", "--trials", "1"],
    ["conjecture", "--degrees", "1", "2", "--trials", "1"],
    ["crofton-length", "--degree", "2", "--trials", "2"],
    ["embedding", "--sphere", "2", "--degree", "2", "--quadrature-depth", "1"],
    # Only the S1 covering degree calls embedding.eval_gradient_many; the
    # image volume reads harmonics.kernel_blocks.
    ["embedding", "--sphere", "1", "--degree", "3"],
    ["invariants", "--degree", "2", "--points", "10"],
    # Averages count zeros with the great-circle pencil; the mesh solver and
    # its icosphere run here, as in the traced zonal ops of mc_high.
    ["zonal", "--degree", "2"],
)


def test_every_traced_name_is_called(monkeypatch):
    # A name its module imports but never calls would give a span that
    # always reads 0.
    calls = {}
    for module, name, *_ in load_patches():
        mod = importlib.import_module(f"sphere_zeros.{module}")
        key = f"{module}.{name}"
        calls[key] = 0

        def counted(*args, _fn=getattr(mod, name), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    for argv in OPS:
        assert main(argv) == 0, argv
    assert [key for key, n in calls.items() if n == 0] == []
