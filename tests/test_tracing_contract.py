"""The benchmark's traced run (perfbench/tracer.py) wraps fedanon functions
by module and name, and its span hooks read their arguments by parameter
name. A rename or deletion here that breaks the benchmark fails this test."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def hook_node(tree: ast.Module, hook) -> ast.FunctionDef | ast.Lambda:
    if hook.__name__ != "<lambda>":
        return next(
            n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == hook.__name__
        )
    lambdas = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Lambda) and n.lineno == hook.__code__.co_firstlineno
    ]
    assert len(lambdas) == 1, f"expected one lambda on tracer.py line {hook.__code__.co_firstlineno}"
    return lambdas[0]


def names_read(node: ast.FunctionDef | ast.Lambda) -> set[str]:
    """Constant keys the hook reads from its bound-arguments dict, the last
    positional parameter: `a["key"]` and `a.get("key")`."""
    args = node.args.args[-1].arg
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name) and n.value.id == args:
            found.add(n.slice.value)
        elif (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "get"
            and isinstance(n.func.value, ast.Name)
            and n.func.value.id == args
        ):
            found.add(n.args[0].value)
    return found


TRACER = load_tracer()
TREE = ast.parse(TRACER_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry", TRACER.TRACED, ids=[f"{m}.{f}" for m, f, *_ in TRACER.TRACED]
)
def test_traced_function_exists_with_the_parameters_its_hooks_read(entry):
    module, attr, _, _, before, after = entry
    fn = getattr(importlib.import_module(module), attr)
    assert callable(fn)
    params = set(inspect.signature(fn).parameters)
    for hook in (before, after):
        if hook is not None:
            missing = names_read(hook_node(TREE, hook)) - params
            assert not missing, f"{module}.{attr} lost parameters {sorted(missing)}"


def test_hooks_read_the_documented_parameters():
    read = set()
    for *_, before, after in TRACER.TRACED:
        for hook in (before, after):
            if hook is not None:
                read |= names_read(hook_node(TREE, hook))
    assert read == {"cfg", "bundle", "spec", "delta_hook", "ds", "method", "records", "path"}
