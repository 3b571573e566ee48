"""Test modules share references and inputs through `reference` alone.

A kernel has one reference, in tests/reference.py, and a helper or a
strategy that two test modules need lives there too: no top-level
function, class or strategy but a test is defined in two modules of
tests/, and no test module imports from another `test_*` module.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _is_strategy(value):
    """An assignment builds a hypothesis strategy when it reads `st`."""
    return any(isinstance(node, ast.Name) and node.id == "st" for node in ast.walk(value))


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign) and _is_strategy(node.value):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def _imported_test_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        yield from (name for name in names if name.split(".")[0].startswith("test_"))


def _scan(sources):
    """({name: [modules]} of the names defined in more than one module,
    [(module, imported test module)]) over {module file name: source}."""
    homes, crossing = {}, []
    for module, text in sorted(sources.items()):
        tree = ast.parse(text, module)
        for name in _definitions(tree):
            if not name.startswith("test_"):
                homes.setdefault(name, []).append(module)
        crossing += [(module, imported) for imported in _imported_test_modules(tree)]
    return {name: modules for name, modules in homes.items() if len(modules) > 1}, crossing


def test_helpers_have_one_home_and_no_test_module_imports_another():
    duplicated, crossing = _scan({path.name: path.read_text() for path in TESTS.glob("*.py")})
    assert duplicated == {}
    assert crossing == []


def test_the_guard_sees_what_it_is_meant_to_find():
    shared = "def W(): pass\nclass C: pass\nLIMIT = 3\ndef test_x(): pass\n"
    duplicated, crossing = _scan({
        "test_a.py": "from hypothesis import strategies as st\ncoeffs = st.integers()\n" + shared,
        "test_b.py": "import test_a\nfrom test_a import W\ncoeffs = st.just(1)\n" + shared,
        "reference.py": "def C(): pass\nfrom reference import W\n",
    })
    assert duplicated == {
        "C": ["reference.py", "test_a.py", "test_b.py"],
        "coeffs": ["test_a.py", "test_b.py"],
        "W": ["test_a.py", "test_b.py"],
    }
    assert crossing == [("test_b.py", "test_a"), ("test_b.py", "test_a")]
