"""`blas.one_thread()` pins numpy's bundled OpenBLAS to one thread and puts
the previous count back however the block ends; without a bundled OpenBLAS
it does nothing."""

import pytest

from fedanon import blas
from fedanon.blas import one_thread


def test_one_thread_pins_openblas_and_restores_the_count(openblas):
    with one_thread():
        assert openblas.get() == 1
    assert openblas.get() == 2


def test_one_thread_restores_the_count_on_an_exception(openblas):
    with pytest.raises(RuntimeError, match="inside"):
        with one_thread():
            raise RuntimeError("inside")
    assert openblas.get() == 2


def test_one_thread_nests(openblas):
    with one_thread():
        with one_thread():
            assert openblas.get() == 1
        assert openblas.get() == 1
    assert openblas.get() == 2


def test_one_thread_is_a_no_op_without_a_bundled_openblas(monkeypatch):
    real = blas._openblas()
    count = real.get if real else lambda: None
    before = count()
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    with one_thread():
        assert count() == before
    assert count() == before
