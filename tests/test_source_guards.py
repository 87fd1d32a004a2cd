"""Source rules the goldens and the run path depend on, checked with `ast`.

* **No built-in float ``sum``.**  From CPython 3.12 ``sum()`` over floats
  compensates its rounding error, so a float total summed with it moves
  in the last ulp between interpreters and breaks the pinned digests.
  Float totals go through :func:`repro.stats.ltr_sum`; a ``sum(`` call
  is allowed only in the named integer sums below.
* **No patching of ``repro`` modules.**  A caller that needs the
  simulator or the network around a run uses
  :class:`repro.models.scenario.Network`; nothing in ``src/`` or
  ``benchmarks/`` may assign to an attribute of an imported ``repro``
  module or ``setattr`` one.
"""

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: The ``sum(`` calls allowed in ``src/repro``: every one adds integers.
#: Keyed by file (relative to ``src/repro``) and enclosing function.
INTEGER_SUMS = {
    # ResultCache.__len__: a count of entry files.
    ("runner/cache.py", "ResultCache.__len__"): 1,
    # RunResult.generated_bits: every source counts whole bits.
    ("models/scenario.py", "Network.result"): 1,
    # churn-1k's work counters: partitions, levels and rewinds.
    ("perf/suite.py", "_case_churn_1k.run"): 3,
}


def _python_files(*roots):
    for root in roots:
        yield from sorted(root.rglob("*.py"))


def _calls_by_scope(tree):
    """Yield ``(qualified enclosing scope, ast.Call)`` for every call."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield from visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                yield ".".join(scope), child
            yield from visit(child, scope)

    yield from visit(tree, ())


def builtin_sums(source):
    """Scopes of the ``sum(...)`` calls in ``source``, one per call."""
    return [
        scope
        for scope, call in _calls_by_scope(ast.parse(source))
        if isinstance(call.func, ast.Name) and call.func.id == "sum"
    ]


def test_builtin_sums_are_the_named_integer_sums():
    found = {}
    for path in _python_files(PACKAGE):
        rel = path.relative_to(PACKAGE).as_posix()
        for scope in builtin_sums(path.read_text()):
            found[(rel, scope)] = found.get((rel, scope), 0) + 1
    unexpected = {
        key: n for key, n in found.items() if key not in INTEGER_SUMS
    }
    assert not unexpected, (
        f"built-in sum() outside the integer allowlist: {unexpected}; "
        "sum floats with repro.stats.ltr_sum"
    )
    assert found == INTEGER_SUMS, "stale INTEGER_SUMS entry"


def test_builtin_sum_detector():
    source = "def f(xs):\n    return sum(xs) + ltr_sum(xs)\n"
    assert builtin_sums(source) == ["f"]


def _is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def _module_aliases(tree):
    """Local names bound to ``repro`` modules by the file's imports."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "repro":
                    aliases.add(alias.asname or "repro")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module is None or node.module.partition(".")[0] != "repro":
                continue
            for alias in node.names:
                if _is_module(f"{node.module}.{alias.name}"):
                    aliases.add(alias.asname or alias.name)
    return aliases


def _root_name(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_patches(source):
    """Line numbers where ``source`` patches an imported ``repro`` module."""
    tree = ast.parse(source)
    aliases = _module_aliases(tree)

    def is_module(node):
        return (
            isinstance(node, (ast.Name, ast.Attribute))
            and _root_name(node) in aliases
        )

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(target, ast.Attribute) and is_module(target.value)
                for target in targets
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            first = node.args[0]
            if name == "setattr" and (
                is_module(first)
                or isinstance(first, ast.Constant)
                and str(first.value).startswith("repro.")
            ):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "source, patched",
    [
        ("from repro.models import scenario\nscenario.build_network = f\n", True),
        ("import repro.models.scenario as s\nsetattr(s, 'run_scenario', f)\n", True),
        ("import repro\nrepro.models.scenario.build_network = f\n", True),
        ("def t(monkeypatch):\n    monkeypatch.setattr('repro.sim.Simulator', f)\n", True),
        # An attribute of an object, not of a module.
        (
            "from repro.models.scenario import Network\n"
            "network = Network.build(config)\n"
            "network.sim = None\n",
            False,
        ),
    ],
    ids=["assign", "setattr", "dotted-assign", "setattr-by-name", "instance"],
)
def test_module_patch_detector(source, patched):
    assert bool(module_patches(source)) is patched


def test_no_module_attribute_patching():
    patched = {
        path.relative_to(ROOT).as_posix(): lines
        for path in _python_files(ROOT / "src", ROOT / "benchmarks")
        if (lines := module_patches(path.read_text()))
    }
    assert not patched, f"repro module attributes patched at {patched}"
