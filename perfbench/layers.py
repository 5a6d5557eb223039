"""Per-layer self time, measured by wrapping each layer's entry point.

The benchmark owns the spans: it replaces a layer's entry point (a
module function or a class attribute) with a wrapper that times the
call, for the traced pass only, and restores the original afterwards.
A layer's self time is its calls' wall time minus the part covered by
wrapped calls nested inside them on the same thread.  Nothing in the
program under test changes.

Forked workers inherit the wrappers.  A worker that should report back
calls :meth:`LayerClock.fork_child` first and :meth:`LayerClock.dump`
before it exits; the parent folds those files in with
:meth:`LayerClock.collect`.
"""

from __future__ import annotations

import inspect
import json
import os
import threading
import time
import uuid
from collections import defaultdict
from pathlib import Path

__all__ = ["LayerClock"]


class LayerClock:
    """Self time per layer, keyed ``(thread role, layer)``.

    The role is ``"main"`` on the main thread and ``"bg"`` elsewhere, so
    one layer entry point hit by a client (main thread) and a server
    (its event-loop thread) in the same process splits cleanly.
    """

    def __init__(self, spool: Path):
        self._spool = spool
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.active = False
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, layer: str, fn):
        """``fn``, timed as ``layer``: for entry points reached through a
        registry rather than an attribute."""
        clock = self
        perf = time.perf_counter

        def timed(*args, **kwargs):
            if not clock.active:
                return fn(*args, **kwargs)
            stack = getattr(clock._local, "stack", None)
            if stack is None:
                stack = clock._local.stack = []
            stack.append(0.0)
            started = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += spent
                role = (
                    "main"
                    if threading.current_thread() is threading.main_thread()
                    else "bg"
                )
                with clock._lock:
                    clock.self_s[role, layer] += spent - nested

        return timed

    def patch(self, owner, attr: str, layer: str) -> None:
        """Time every call of ``owner.attr`` as ``layer``."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(layer, raw.__func__))
        else:
            replacement = self.wrap(layer, raw)
        self.replace(owner, attr, replacement)

    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patched.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reading -----------------------------------------------------------

    def seconds(self, layer: str, role: str | None = None) -> float:
        """Self seconds of ``layer`` (one role, or summed over roles)."""
        return sum(
            spent
            for (r, name), spent in self.self_s.items()
            if name == layer and (role is None or r == role)
        )

    # -- forked workers ----------------------------------------------------

    def fork_child(self) -> None:
        """In a freshly forked worker: forget the parent's totals."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s.clear()

    def dump(self) -> None:
        """In a worker about to exit: spool its totals for the parent."""
        self._spool.mkdir(parents=True, exist_ok=True)
        rows = [[r, n, s] for (r, n), s in self.self_s.items()]
        tmp = self._spool / f".{os.getpid()}-{uuid.uuid4().hex}"
        tmp.write_text(json.dumps(rows))
        tmp.rename(self._spool / f"{tmp.name[1:]}.json")

    def collect(self) -> None:
        """In the parent: fold in and delete every spooled worker file."""
        if not self._spool.is_dir():
            return
        for path in sorted(self._spool.glob("*.json")):
            for role, name, spent in json.loads(path.read_text()):
                self.self_s[role, name] += spent
            path.unlink()
