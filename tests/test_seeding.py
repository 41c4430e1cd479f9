"""Keyed RNG derivation: identical key paths must reproduce draws exactly,
distinct paths must diverge, and key order matters."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import fedanon
from fedanon.seeding import rng_from, seed_from


def test_same_path_same_stream():
    a = rng_from(3, "stage", 7).normal(size=10)
    b = rng_from(3, "stage", 7).normal(size=10)
    np.testing.assert_array_equal(a, b)


def test_different_paths_diverge():
    base = rng_from(3, "stage", 7).normal(size=10)
    for other in [(4, "stage", 7), (3, "other", 7), (3, "stage", 8), (3, "stage")]:
        assert not np.array_equal(base, rng_from(*other).normal(size=10))


def test_key_order_matters():
    assert seed_from(1, 2) != seed_from(2, 1)


def test_seed_from_is_stable_and_nonnegative():
    assert seed_from(0, "init") == seed_from(0, "init")
    assert seed_from(5, "device-update", 3, 11) >= 0


def test_negative_int_keys_accepted():
    assert seed_from(-1, "x") == seed_from(-1, "x")
    assert seed_from(-1, "x") != seed_from(1, "x")


def test_string_and_int_keys_are_distinct_namespaces():
    # "7" the string is not 7 the int
    assert seed_from(3, "7") != seed_from(3, 7)


def test_rejects_other_key_types():
    with pytest.raises(TypeError):
        seed_from(3.5)


def defined_functions(module):
    """The functions written in `module`'s source: its own functions and
    the methods of its own classes, not generated ones such as a
    dataclass's __init__."""
    found = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for fn in members:
            fn = getattr(fn, "__func__", fn)  # staticmethod, classmethod
            if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                found.append(fn)
    return found


def test_no_fedanon_function_defaults_its_seed():
    # a forgotten seed would silently draw from stream 0, the stream another
    # draw may already use
    defaulted = []
    for info in pkgutil.iter_modules(fedanon.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"fedanon.{info.name}")
        for fn in defined_functions(module):
            seed = inspect.signature(fn).parameters.get("seed")
            if seed is not None and seed.default is not inspect.Parameter.empty:
                defaulted.append(f"{module.__name__}.{fn.__qualname__}")
    assert defaulted == []
