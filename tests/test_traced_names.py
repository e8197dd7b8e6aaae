"""The benchmark can find every package name it calls or wraps.

``perfbench/tracer.py`` looks each name of ``LAYER_FUNCTIONS`` up in the
package and in its layer modules; a name that no longer resolves is silently
left untraced and its layer counters read zero.  The workloads call
``peachsim.<name>``; a name that no longer resolves fails the benchmark run.
Both are read from the source with ``ast``, so the benchmark package is
neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

import peachsim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
MODULES = ("model", "estimators", "analysis", "adaptive", "cli")


def layer_functions() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYER_FUNCTIONS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS assignment in {TRACER}")


def test_every_traced_function_resolves():
    namespaces = [peachsim] + [importlib.import_module(f"peachsim.{mod}") for mod in MODULES]
    names = [name for groups in layer_functions().values() for group in groups.values() for name in group]
    missing = [name for name in names if not any(callable(getattr(ns, name, None)) for ns in namespaces)]
    assert names
    assert not missing, f"traced names not found in peachsim: {missing}"


def test_every_package_attribute_the_benchmark_reads_resolves():
    names = {
        node.attr
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "peachsim"
    }
    missing = sorted(name for name in names if not hasattr(peachsim, name))
    assert "wpeach_estimate" in names
    assert not missing, f"peachsim names used by perfbench/ not found: {missing}"
