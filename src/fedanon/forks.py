"""Independent calls run in forked children, one per spare CPU.

A child reads its arguments from the parent's memory, copy-on-write, and
only its return value is pickled back over a pipe, so nothing a call needs
is copied and the children's buffers never count against the parent. A
child always leaves by `os._exit`. Without `os.fork`, or with no spare CPU,
every call runs in place and returns the same values.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from contextlib import suppress
from typing import Any, Callable, Iterable

from .blas import pin


class Forks:
    """Calls run in forked children, at most one per spare CPU at a time.
    `start` queues one call and `join` returns the started calls' values in
    start order; `map` splits its items between this process and one child
    per spare CPU not yet busy. A child's exception is raised again here; a
    child that ends without a result raises `ChildProcessError` naming the
    call. Leaving the block kills and reaps every child not yet joined.

    OpenBLAS is pinned to one thread (`blas.pin`) before the first fork.
    Its fork handler shuts its thread pool down, so a child holds no lock
    another thread took, and a later change of the count would start a
    worker that spins; at one thread no pool comes back."""

    def __init__(self) -> None:
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        self.limit = (usable or os.cpu_count() or 1) - 1 if hasattr(os, "fork") else 0
        self.values: list[Any] = []
        # (pid, read end of its pipe, qualified name of the call) of each child
        self.running: deque[tuple[int, int, str]] = deque()

    def _fork(self, fn: Callable[..., Any], call: Callable[[], Any]) -> tuple[int, int, str]:
        """Run `call()` in a new child; `fn` is the function it calls. If
        the fork fails, both ends of the pipe are closed before the error
        is raised."""
        pin()
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            status = 1
            try:
                try:
                    payload = (True, call())
                except BaseException as err:
                    payload = (False, err)
                with open(write, "wb") as pipe:
                    pickle.dump(payload, pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        child = (pid, read, fn.__qualname__)
        self.running.append(child)
        return child

    def _join(self, child: tuple[int, int, str]) -> Any:
        """Wait for `child` and return its value."""
        pid, read, name = child
        with open(read, "rb", closefd=False) as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        self.running.remove(child)
        os.close(read)
        try:
            ok, value = pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(
                f"{name} in child {pid} ended without a result "
                f"(exit status {os.waitstatus_to_exitcode(status)})"
            ) from None
        if not ok:
            raise value
        return value

    def start(self, fn: Callable[..., Any], *args: Any) -> None:
        """Call `fn(*args)` in a child, once one of the spare CPUs is free,
        or in place without one."""
        if not self.limit:
            self.values.append(fn(*args))
            return
        if len(self.running) >= self.limit:
            self.values.append(self._join(self.running[0]))
        self._fork(fn, lambda: fn(*args))

    def join(self) -> list[Any]:
        """The values of every started call, in start order."""
        while self.running:
            self.values.append(self._join(self.running[0]))
        return self.values

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """`[fn(item) for item in items]`. Of n ways (this process and one
        child per spare CPU not yet busy, at most one way per item), way w
        takes the items w, w + n, w + 2n, ...: on two CPUs this process
        takes items 0, 2, 4, ... and one child the rest."""
        items = list(items)
        ways = max(1, min(self.limit - len(self.running) + 1, len(items)))
        children = [self._fork(fn, lambda share=items[w::ways]: [fn(i) for i in share])
                    for w in range(1, ways)]
        values = [None] * len(items)
        values[::ways] = [fn(i) for i in items[::ways]]
        for w, child in enumerate(children, 1):
            values[w::ways] = self._join(child)
        return values

    def __enter__(self) -> Forks:
        return self

    def __exit__(self, *exc: object) -> None:
        import signal  # here, not at the top: only an error leaves children to kill

        while self.running:
            pid, read, _ = self.running.popleft()
            os.close(read)
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
