"""Every dotted module reference in README.md names a real attribute.

A reference is a backticked span that starts with ``<module>.<name>``, such
as `zerofinder.NEWTON_TOL = 1e-12`; the helper it names must still exist.
"""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "embedding", "harmonics", "icosphere", "integralgeom", "zerofinder")
REFERENCE = re.compile(rf"^({'|'.join(MODULES)})\.([A-Za-z_]\w*)")


def readme_references() -> list[tuple[str, str]]:
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    return [m.groups() for m in map(REFERENCE.match, spans) if m]


def test_readme_references_resolve():
    references = readme_references()
    assert len(references) >= 10
    missing = [
        f"{module}.{name}"
        for module, name in references
        if not hasattr(importlib.import_module(f"sphere_zeros.{module}"), name)
    ]
    assert not missing, f"README.md names helpers that do not exist: {missing}"
