"""In-memory span recorder and the wrappers that feed it.

A traced run patches a listed set of each layer's entry points (see
:mod:`harness.layers`) with thin wrappers. Every call of a wrapped
function is one span; a wrapped *generator* function (``Comm.Isend``,
``waitall``, ``Request.wait``, ...) gets one span per resumption, because
the time between two resumptions belongs to whoever ran the event loop.

Spans are ``(id, name, start_ns, end_ns, parent_id)`` and stay in memory
until :meth:`SpanRecorder.save` writes them out. Self time is maintained
on the fly: a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Optional

__all__ = ["SpanRecorder", "Patcher"]


class SpanRecorder:
    """Spans in flat arrays plus per-name call and self-time tallies."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        # Finished spans, one entry per field.
        self.s_id = array("q")
        self.s_name = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("q")
        # Open spans: [span id, name id, start, child ns].
        self._stack: list[list[int]] = []
        self._next = 0
        #: Time covered by root spans (no parent).
        self.covered_ns = 0

    def intern(self, name: str) -> int:
        """Stable small integer for a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def enter(self, nid: int) -> None:
        sid = self._next
        self._next = sid + 1
        self._stack.append([sid, nid, perf_counter_ns(), 0])

    def exit(self) -> None:
        end = perf_counter_ns()
        sid, nid, start, child = self._stack.pop()
        dur = end - start
        self.self_ns[nid] += dur - child
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[3] += dur
            self.s_parent.append(parent[0])
        else:
            self.covered_ns += dur
            self.s_parent.append(-1)
        self.s_id.append(sid)
        self.s_name.append(nid)
        self.s_start.append(start)
        self.s_end.append(end)

    def count(self, name: str) -> int:
        """Invocations of ``name`` (0 if never wrapped or never called)."""
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def durations_ns(self, name: str) -> list[int]:
        """Inclusive duration of every finished span of ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [e - s for n, s, e in zip(self.s_name, self.s_start,
                                          self.s_end) if n == nid]

    def save(self, path: str) -> None:
        """Write every finished span (compressed numpy arrays)."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names),
            id=np.frombuffer(self.s_id, dtype=np.int64),
            name=np.frombuffer(self.s_name, dtype=np.int32),
            start_ns=np.frombuffer(self.s_start, dtype=np.int64),
            end_ns=np.frombuffer(self.s_end, dtype=np.int64),
            parent=np.frombuffer(self.s_parent, dtype=np.int64))


def _resumptions(rec: SpanRecorder, nid: int, gen: Any):
    """Drive ``gen`` and time each resumption as one span of ``nid``."""
    enter, exit_ = rec.enter, rec.exit
    value: Any = None
    thrown: Optional[BaseException] = None
    while True:
        enter(nid)
        try:
            if thrown is None:
                target = gen.send(value)
            else:
                exc, thrown = thrown, None
                target = gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            exit_()
        try:
            value = yield target
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # re-raised inside the wrapped generator
            thrown = exc


_RESUMPTIONS_CODE = _resumptions.__code__


def _wrap(rec: SpanRecorder, name: str, fn: Callable,
          observe: Optional[Callable[[Any], None]]) -> Callable:
    nid = rec.intern(name)
    calls = rec.calls
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            calls[nid] += 1
            return _resumptions(rec, nid, fn(*args, **kwargs))
        return gen_wrapper

    enter, exit_ = rec.enter, rec.exit
    if observe is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return wrapper

    @functools.wraps(fn)
    def observing_wrapper(*args, **kwargs):
        calls[nid] += 1
        enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        observe(result)
        return result
    return observing_wrapper


class Patcher:
    """Installs wrappers over ``module:Qual.name`` targets and undoes them.

    ``Class.*`` expands to every public function defined on the class
    itself. A module-level function is also replaced in every loaded
    ``repro`` module that imported it by name, so ``from x import f``
    call sites are traced too.
    """

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, layer: str, target: str,
             observe: Optional[Callable[[Any], None]] = None) -> None:
        module_name, _, qual = target.partition(":")
        module = importlib.import_module(module_name)
        *path, attr = qual.split(".")
        owner: Any = module
        for part in path:
            owner = getattr(owner, part)
        if attr == "*":
            attrs = [a for a, v in vars(owner).items()
                     if not a.startswith("_") and inspect.isfunction(v)]
        else:
            attrs = [attr]
        for a in attrs:
            fn = owner.__dict__[a]
            label = f"{layer}:{'.'.join(path + [a])}"
            wrapped = _wrap(self.rec, label, fn, observe)
            self.replace(owner, a, wrapped)
            if owner is module:
                for mod in list(sys.modules.values()):
                    if mod is not module and getattr(mod, "__name__", "") \
                            .startswith("repro") and mod.__dict__.get(a) is fn:
                        self.replace(mod, a, wrapped)

    def wrap_spawn(self, layer_of_file: Callable[[str], str]) -> None:
        """Time every simulated task's resumptions as ``<layer>:task``,
        with the layer of the file that defines the task's generator."""
        from repro.sim.core import Simulator
        rec = self.rec
        original = Simulator.__dict__["spawn"]
        by_file: dict[str, int] = {}

        def task_nid(code) -> int:
            nid = by_file.get(code.co_filename)
            if nid is None:
                layer = layer_of_file(code.co_filename)
                nid = by_file[code.co_filename] = rec.intern(f"{layer}:task")
            return nid

        @functools.wraps(original)
        def spawn(sim, gen, name: str = ""):
            code = getattr(gen, "gi_code", None)
            if code is None or code is _RESUMPTIONS_CODE:
                return original(sim, gen, name)
            nid = task_nid(code)
            rec.calls[nid] += 1
            return original(sim, _resumptions(rec, nid, gen),
                            name or getattr(gen, "__name__", "process"))

        self.replace(Simulator, "spawn", spawn)
        self.replace(Simulator, "process", spawn)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

