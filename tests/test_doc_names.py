"""Every backticked dotted name `module.name` in README.md and in the
package's own source names something that exists, so deleting or renaming
a definition cannot leave a stale reference in the docs behind."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import diracindex

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "src" / "diracindex").glob("*.py"))]
MODULES = {info.name for info in pkgutil.iter_modules(diracindex.__path__)}
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def _dotted_names():
    """{name: first document naming it} for each backticked dotted name
    whose head is a module of the package, or the package itself."""
    names = {}
    for path in DOCUMENTS:
        for match in DOTTED.finditer(path.read_text()):
            name = match.group(1)
            head = name.split(".")[0]
            if head in MODULES or head == "diracindex":
                names.setdefault(name, path.relative_to(ROOT).as_posix())
    return names


NAMES = _dotted_names()


def _resolve(name):
    """The object a dotted name names: its module of the package, then one
    attribute per remaining part."""
    head, *rest = name.split(".")
    if head == "diracindex":
        head, *rest = rest
    obj = importlib.import_module(f"diracindex.{head}")
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_the_documents_name_package_objects():
    """The pattern finds the module-qualified names the docs use."""
    assert len(NAMES) >= 19
    assert "kmodules.dim_virtual" in NAMES and "diracindex.series" in NAMES


@pytest.mark.parametrize("name", sorted(NAMES))
def test_dotted_name_resolves(name):
    try:
        _resolve(name)
    except (AttributeError, ImportError) as exc:
        pytest.fail(f"`{name}` in {NAMES[name]} does not resolve: {exc}")
