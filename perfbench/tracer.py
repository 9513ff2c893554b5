"""Outside-in span tracer for the exoforecast benchmark.

Spans are recorded by wrapping a program's public entry points at the name
their caller resolves (``exoforecast.model.select_stage``, not
``exoforecast.selector.select_stage``), so nothing in the program changes.
Spans live in memory as parallel columns (name, start, end, parent) and are
only summarised or written out when the run ends. Columns are ``array``
buffers rather than lists of tuples so recording a span allocates no object
the garbage collector tracks: the benchmark must not shift when the
collector runs, because tape lifetime is one of the things it measures.
"""

from __future__ import annotations

import importlib
import time
import weakref
from array import array
from collections import defaultdict


def resolve(path: str):
    """Return ``(owner, attribute)`` for a dotted entry point, or ``(None, reason)``.

    The longest importable prefix is the module; the rest is an attribute
    chain ending at the entry point itself, which must exist.
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None, f"entry point {path} not found"
        if not hasattr(owner, parts[-1]):
            return None, f"entry point {path} not found"
        return owner, parts[-1]
    return None, f"entry point {path} not found (no importable module)"


def nbytes_held(obj) -> int:
    """Bytes of the distinct array buffers reachable from ``obj``.

    Walks arrays, lists, tuples and plain objects; a view counts as the
    array that owns its memory, and each owner counts once.
    """
    owners: dict[int, int] = {}

    def walk(o):
        if hasattr(o, "nbytes") and hasattr(o, "base"):
            while getattr(o, "base", None) is not None and hasattr(o.base, "nbytes"):
                o = o.base
            owners[id(o)] = o.nbytes
        elif isinstance(o, (list, tuple)):
            for item in o:
                walk(item)
        elif hasattr(o, "__dict__"):
            for value in vars(o).values():
                walk(value)

    walk(obj)
    return sum(owners.values())


class Tracer:
    """Records spans around wrapped entry points, plus tape growth per span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.missing: dict[str, str] = {}
        self._installed: list[tuple] = []
        # tape accounting
        self.tape = None
        self.tape_index = -1
        self._tape_refs: list = []
        self.tapes_alive_max = 0
        self._tape_growth: dict[str, dict[int, list[int]]] = defaultdict(dict)
        self.tape_error: str | None = None

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def summary(self) -> dict[str, dict]:
        """Per span name: total and self seconds summed over calls, and calls.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            rec = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            duration = self.end[i] - self.start[i]
            rec["total_s"] += duration
            rec["self_s"] += duration - child_time[i]
            rec["calls"] += 1
        return out

    def spans(self) -> list[list]:
        """All spans as ``[name, start, end, parent]`` rows for writing out."""
        return [[self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]]
                for i in range(len(self.start))]

    # -- wrapping ------------------------------------------------------------

    def _patch(self, path: str, key: str, make_wrapper) -> bool:
        owner, attr = resolve(path)
        if owner is None:
            self.missing[key] = attr
            return False
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def wrap(self, path: str, span: str, *, count_tape: bool = False,
             on_result=None) -> bool:
        """Record ``span`` around every call of the entry point at ``path``.

        With ``count_tape`` the span also counts the nodes and output bytes
        the call appended to the active tape. ``on_result`` sees each return
        value. A missing entry point is remembered in ``missing``, not raised.
        """
        def make(fn):
            def wrapper(*args, **kwargs):
                tape = self.tape if count_tape else None
                base = len(tape.nodes) if tape is not None else 0
                i = self.open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(i)
                if tape is not None:
                    self._count(span, tape.nodes[base:])
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper

        return self._patch(path, span, make)

    def hook_tape(self, path: str) -> bool:
        """Follow the active tape through ``__enter__``/``__exit__`` of the
        tape class at ``path``; whole-tape growth is counted as ``autodiff``."""
        for method in ("__enter__", "__exit__"):
            owner, reason = resolve(f"{path}.{method}")
            if owner is None:
                self.missing["autodiff"] = reason
                return False
        self._patch(path + ".__enter__", "autodiff", self._enter_hook)
        self._patch(path + ".__exit__", "autodiff", self._exit_hook)
        return True

    def _enter_hook(self, fn):
        def enter(tape, *args, **kwargs):
            result = fn(tape, *args, **kwargs)
            self._tape_refs = [r for r in self._tape_refs if r() is not None]
            self.tapes_alive_max = max(self.tapes_alive_max, len(self._tape_refs))
            self._tape_refs.append(weakref.ref(tape))
            self.tape_index += 1
            if isinstance(getattr(tape, "nodes", None), list):
                self.tape = tape
            else:
                self.tape_error = "tape keeps no list of nodes"
            return result
        return enter

    def _exit_hook(self, fn):
        def exit_(tape, *args, **kwargs):
            if tape is self.tape:
                self._count("autodiff", tape.nodes)
                self.tape = None
            return fn(tape, *args, **kwargs)
        return exit_

    def _count(self, span: str, nodes) -> None:
        if self.tape_error is not None:
            return
        try:
            added = sum(node.output.values.nbytes for node in nodes)
        except AttributeError as exc:
            self.tape_error = f"tape node layout not recognised: {exc}"
            return
        growth = self._tape_growth[span].setdefault(self.tape_index, [0, 0])
        growth[0] += len(nodes)
        growth[1] += added

    def tape_per_step(self, span: str) -> tuple[int, int]:
        """Largest (nodes, output bytes) one tape received inside ``span``."""
        per_tape = self._tape_growth.get(span, {})
        if not per_tape:
            return 0, 0
        return (max(g[0] for g in per_tape.values()),
                max(g[1] for g in per_tape.values()))

    def uninstall(self) -> None:
        """Put every wrapped entry point back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
