"""The one attachment seam: instance-attribute wrapping, removed exactly.

Everything that observes or sabotages a VM — telemetry, the profiler,
the sanitizer, armed faults — does so by wrapping a method of the VM, its
plan, its space or a root table as an *instance attribute* through
``vm.seam``.  A VM nothing attached to therefore executes the class /
compiled originals with no hook branches at all, and this module is the
only place that knows how such a wrapper is installed and undone
(DESIGN §10).

Per ``(obj, name)`` site the seam keeps the original once and the live
factories in attach order, and rebuilds the whole chain on every add and
remove.  So wrappers come off in any order, and the last removal deletes
the instance attribute again (or restores a prior instance attribute,
such as the compiled ``plan.write_ref_field``).  Because a rebuild
re-invokes every factory still attached, a factory keeps its state on
its owner, never in the closure it returns.
"""

from __future__ import annotations

from typing import Callable, Optional

#: Collection entry points of a plan (whichever exist).  GCTk plans call
#: ``minor_collect`` / ``major_collect`` straight from the allocator and
#: ``collect`` delegates to them, hence the depth guard below.
COLLECT_ENTRIES = ("collect", "minor_collect", "major_collect")


class _Site:
    """One wrapped attribute: what was there, and who wraps it now."""

    def __init__(self, obj, name: str):
        self.obj = obj
        self.name = name
        self.original = getattr(obj, name)
        self.was_instance = name in vars(obj)
        self.makers = []  #: live factories, attach order


class _Handle:
    """What ``wrap`` / ``around_collections`` return; ``remove()`` is
    idempotent."""

    def __init__(self, undo: Callable[[], None]):
        self._undo: Optional[Callable[[], None]] = undo

    def remove(self) -> None:
        undo, self._undo = self._undo, None
        if undo is not None:
            undo()


class Seam:
    """One VM's wrap sites and its collection-entry guard."""

    def __init__(self):
        self._sites = {}  #: (id(obj), name) -> _Site; obj kept alive by it
        self._observers = []  #: (begin, end) pairs, attach order
        self._entry_wraps = []
        self._depth = 0

    @property
    def active(self) -> bool:
        """True while any wrapper is installed anywhere on this VM."""
        return bool(self._sites)

    def wrap(self, obj, name: str, make: Callable) -> _Handle:
        """Wrap ``obj.name`` with ``make(inner)``; later wraps go outside
        earlier ones.  A factory that ignores ``inner`` replaces."""
        key = (id(obj), name)
        site = self._sites.get(key)
        if site is None:
            site = self._sites[key] = _Site(obj, name)
        site.makers.append(make)
        self._rebuild(site)

        def undo():
            # Removes the first *equal* factory — equal factories build
            # equal wrappers, so which one goes makes no difference.
            site.makers.remove(make)
            self._rebuild(site)

        return _Handle(undo)

    def _rebuild(self, site: _Site) -> None:
        obj, name = site.obj, site.name
        if site.makers:
            fn = site.original
            for make in site.makers:
                fn = make(fn)
            setattr(obj, name, fn)
            return
        del self._sites[(id(obj), name)]
        if site.was_instance:
            setattr(obj, name, site.original)
        else:
            delattr(obj, name)

    # ------------------------------------------------------------------
    def around_collections(
        self,
        plan,
        begin: Callable = lambda reason: None,
        end: Callable = lambda: None,
    ) -> _Handle:
        """Call ``begin(reason)`` before and ``end()`` after every
        *outermost* collection entry of ``plan``.

        The last observer attached begins first and ends last, like
        nested wrappers; ``end`` runs (also on an exception) for exactly
        the observers whose ``begin`` returned.
        """
        observer = (begin, end)
        if not self._observers:
            self._entry_wraps = [
                self.wrap(plan, entry, self._guarded(entry))
                for entry in COLLECT_ENTRIES
                if hasattr(plan, entry)
            ]
        self._observers.append(observer)

        def undo():
            self._observers.remove(observer)
            if not self._observers:
                for wrap in self._entry_wraps:
                    wrap.remove()

        return _Handle(undo)

    def _guarded(self, entry_name: str) -> Callable:
        def make(inner):
            def entry(*args, **kwargs):
                if self._depth:  # delegation (collect -> minor_collect)
                    return inner(*args, **kwargs)
                self._depth = 1
                reason = args[0] if args else kwargs.get("reason", entry_name)
                begun = []
                try:
                    for begin, end in reversed(self._observers):
                        begin(str(reason))
                        begun.append(end)
                    return inner(*args, **kwargs)
                finally:
                    self._depth = 0
                    while begun:
                        begun.pop()()

            return entry

        return make
