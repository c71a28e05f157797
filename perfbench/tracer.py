"""In-memory span tracer installed from outside the program.

:class:`Tracer` replaces methods and module functions of ``repro`` with
timing wrappers.  Each wrapper keeps a per-thread stack of open spans, so
for every (thread, layer, caller layer) it can aggregate

* ``count`` — calls;
* ``busy`` — seconds from call to return;
* ``self`` — busy time minus the part covered by child spans.

Nothing is written while the workload runs: :meth:`Tracer.snapshot`
returns the aggregate, and the caller writes it out at the end.  A target
that no longer exists is recorded in :attr:`Tracer.missing`; the caller
fails the run on it, so its metrics cannot silently read 0.

Targets are patched on the class (or on every loaded ``repro`` module that
imported a function by name), which is why the tracer must be installed
before the workload builds its objects: links and speakers capture bound
methods when they are wired together.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Aggregate key: (thread name, layer, caller layer or "-").
Key = Tuple[str, str, str]

#: A post-call hook: ``hook(args, result, elapsed)``.
Hook = Callable[[Tuple[Any, ...], Any, float], None]


class Tracer:
    """Wrap targets, aggregate spans per (thread, layer, caller)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        # key -> [count, busy, self]
        self._stats: Dict[Key, List[float]] = {}
        self._undo: List[Callable[[], None]] = []
        self.missing: List[str] = []
        self.counters: Dict[str, float] = {}

    # -- installation -----------------------------------------------------

    def install(self, target: str, layer: str, hook: Optional[Hook] = None) -> bool:
        """Wrap ``module:Class.method`` or ``module:function``.

        Returns False (and records the target as missing) when it cannot
        be resolved.
        """
        module_name, _, attr_path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return self._missing(target)
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None or not callable(original):
                return self._missing(target)
            wrapped = self._wrap(original, layer, hook)
            setattr(owner, attr, wrapped)
            self._undo.append(lambda: setattr(owner, attr, original))
            return True
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            return self._missing(target)
        wrapped = self._wrap(original, layer, hook)
        # Functions imported by name live on in the importing modules too.
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    self._undo.append(
                        lambda m=loaded, k=key: setattr(m, k, original)
                    )
        return True

    def _missing(self, target: str) -> bool:
        if target not in self.missing:
            self.missing.append(target)
        return False

    def uninstall(self) -> None:
        """Restore every wrapped target (latest first)."""
        while self._undo:
            self._undo.pop()()

    def add(self, name: str, amount: float = 1.0) -> None:
        """Bump a free-form counter (hooks use this)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- the wrapper ------------------------------------------------------

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.thread = threading.current_thread().name
        return stack

    def _wrap(self, fn: Callable[..., Any], layer: str, hook: Optional[Hook]) -> Callable[..., Any]:
        tracer = self
        stats = self._stats
        lock = self._lock

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            caller = stack[-1][0] if stack else "-"
            frame = [layer, 0.0]
            stack.append(frame)
            started = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = _clock() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (tracer._local.thread, layer, caller)
                entry = stats.get(key)
                if entry is None:
                    with lock:
                        entry = stats.setdefault(key, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if hook is not None:
                    hook(args, result, elapsed)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- read-out ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe aggregate: spans per (thread, layer, caller) + counters."""
        with self._lock:
            spans = [
                {
                    "thread": thread,
                    "layer": layer,
                    "caller": caller,
                    "count": int(entry[0]),
                    "busy_s": entry[1],
                    "self_s": entry[2],
                }
                for (thread, layer, caller), entry in sorted(self._stats.items())
            ]
            counters = dict(sorted(self.counters.items()))
        return {"spans": spans, "counters": counters, "missing": list(self.missing)}


def layer_totals(snap: Dict[str, Any], thread: Optional[str] = None) -> Dict[str, Dict[str, float]]:
    """Per layer: count, busy and self seconds summed over callers.

    Busy time of a layer that calls itself recursively would double-count;
    no traced target here is recursive.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for span in snap["spans"]:
        if thread is not None and span["thread"] != thread:
            continue
        entry = totals.setdefault(span["layer"], {"count": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["count"] += span["count"]
        entry["busy_s"] += span["busy_s"]
        entry["self_s"] += span["self_s"]
    return totals
