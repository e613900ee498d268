"""Layer tracer: self time and call counts per layer, from outside the program.

The benchmark never edits the program to trace it.  Instead
:class:`LayerTracer` swaps each layer's public function for a wrapper while
the traced passes run, and puts every original back afterwards.  A wrapper
records one span per call on a single stack, so a layer's *self time* is
its spans' wall time minus the time of the wrapped calls made inside them
(for example EM minus the path enumeration it triggers).  Everything runs
in one thread (the serve workers are asyncio tasks, and the two wrapped
coroutines are awaited by the one streaming task), so spans nest strictly and
the self times plus the unattributed remainder add up to the traced wall.

Wrappers may also read counts off a call's arguments or result (EM
iterations, paths enumerated, activations run).  Those counts are what the
benchmark's own test holds to exact repetition at one seed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: (count name, extractor(args, kwargs, result) -> number) pairs.
Counter = tuple[str, Callable[[tuple, dict, Any], float]]


@dataclass
class _Site:
    owner: Any  # a class or a module
    name: str
    layer: Optional[str]  # None: count only, no span
    counters: tuple[Counter, ...]
    on_call: Optional[Callable[[tuple, dict, Any, float], None]]
    original: Any = None


@dataclass
class LayerTracer:
    """Installs span wrappers; accumulates self time and counts per layer."""

    self_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[list[float]] = field(default_factory=list)
    _sites: list[_Site] = field(default_factory=list)
    _rebound: list[tuple[Any, str, Any]] = field(default_factory=list)
    _installed: bool = False

    # -- registration -------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        name: str,
        layer: Optional[str],
        counters: tuple[Counter, ...] = (),
        on_call: Optional[Callable[[tuple, dict, Any, float], None]] = None,
    ) -> None:
        """Trace ``owner.name`` (a plain method of a class, or a module function).

        ``layer=None`` only counts.  ``on_call(args, kwargs, result, seconds)``
        sees every call, for per-call series such as per-shard absorb cost.
        """
        self._sites.append(_Site(owner, name, layer, tuple(counters), on_call))

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for site in self._sites:
            site.original = site.owner.__dict__[site.name]
            wrapped = self._wrapper(site)
            setattr(site.owner, site.name, wrapped)
            if inspect.ismodule(site.owner):
                # Modules that imported the function by name hold their own
                # binding; rebind those too so every caller is traced.
                for module in list(sys.modules.values()):
                    if module is site.owner or module is None:
                        continue
                    if getattr(module, "__name__", "").split(".")[0] != "repro":
                        continue
                    if module.__dict__.get(site.name) is site.original:
                        self._rebound.append((module, site.name, site.original))
                        setattr(module, site.name, wrapped)
        self._installed = True

    def uninstall(self) -> None:
        for module, name, original in self._rebound:
            setattr(module, name, original)
        self._rebound.clear()
        for site in self._sites:
            if site.original is not None:
                setattr(site.owner, site.name, site.original)
                site.original = None
        self._installed = False

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------------

    def _open(self) -> list[float]:
        frame = [time.perf_counter(), 0.0]  # start, time of child spans
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[float], layer: Optional[str]) -> float:
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("layer spans closed out of order")
        wall = time.perf_counter() - frame[0]
        if layer is not None:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + wall - frame[1]
            if self._stack:
                self._stack[-1][1] += wall
        elif self._stack:
            # A count-only site is not a span: its time stays with the parent.
            self._stack[-1][1] += frame[1]
        return wall

    def _record(self, site: _Site, args, kwargs, result, wall: float) -> None:
        for name, extract in site.counters:
            self.counts[name] = self.counts.get(name, 0) + extract(args, kwargs, result)
        if site.on_call is not None:
            site.on_call(args, kwargs, result, wall)

    def _wrapper(self, site: _Site) -> Callable:
        func = site.original
        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                frame = self._open()
                try:
                    result = await func(*args, **kwargs)
                finally:
                    wall = self._close(frame, site.layer)
                self._record(site, args, kwargs, result, wall)
                return result

            return traced_async

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = self._open()
            try:
                result = func(*args, **kwargs)
            finally:
                wall = self._close(frame, site.layer)
            self._record(site, args, kwargs, result, wall)
            return result

        return traced
