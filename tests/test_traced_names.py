"""The benchmark's traced run can find every function it wraps.

``perfbench/tracer.py`` looks each name of ``LAYER_FUNCTIONS`` up in the
package and in its layer modules; a name that no longer resolves is silently
left untraced and its layer counters read zero.  The table is read as a
literal, so the benchmark package is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

import peachsim

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
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
