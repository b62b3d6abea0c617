"""Named numbers under one lock: the serving stack's one counter mechanism.

Every serving component that keeps counts (the caches, the dispatcher, the
pool index, the service, the lifecycle manager, the cluster router) holds one
:class:`Counters` as its ``.stats`` and derives what it reports (hit rates,
means, throughput) in its own ``stats_snapshot()`` from one
:meth:`Counters.snapshot`.
"""

from __future__ import annotations

import threading
__all__ = ["Counters"]

_COUNTER, _GAUGE, _MAXIMUM = 0, 1, 2


class Counters:
    """Named numbers under one lock, read as plain attributes.

    Each keyword names one number and gives its starting value, an ``int``
    or a ``float``.  Names listed in ``gauges`` are set rather than summed,
    names listed in ``maxima`` keep a running maximum, and every other name
    is a counter.  Counters count from construction: nothing resets them.

    Usage::

        stats = Counters(hits=0, misses=0, depth=0, maxima=("depth",))
        stats.add("hits")                  # one counter, one lock window
        stats.update(misses=1, depth=7)    # several names, one lock window
        stats.hits                         # a plain read
    """

    __slots__ = ("_lock", "_values", "_kinds", "__dict__")

    def __init__(
        self, *, gauges: tuple[str, ...] = (), maxima: tuple[str, ...] = (), **initial: float
    ) -> None:
        kinds = dict.fromkeys(initial, _COUNTER)
        kinds.update(dict.fromkeys(gauges, _GAUGE))
        kinds.update(dict.fromkeys(maxima, _MAXIMUM))
        if len(kinds) != len(initial):
            unknown = sorted(set(kinds) - set(initial))
            raise ValueError(f"gauges and maxima need a starting value: {unknown}")
        setter = object.__setattr__
        setter(self, "_lock", threading.Lock())
        setter(self, "_kinds", kinds)
        self.__dict__.update(initial)
        setter(self, "_values", self.__dict__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"write {name!r} through add() or update()")

    def add(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        with self._lock:
            self._values[name] += amount

    def update(self, **values: float) -> None:
        """Apply several numbers in one lock window.

        A counter adds its value, a gauge is set to it, and a maximum keeps
        the larger of its current value and this one.
        """
        kinds = self._kinds
        with self._lock:
            current = self._values
            for name, value in values.items():
                kind = kinds[name]
                if kind == _COUNTER:
                    current[name] += value
                elif kind == _GAUGE or value > current[name]:
                    current[name] = value

    def snapshot(self) -> dict[str, float]:
        """Every number, read in one lock window, in declaration order."""
        with self._lock:
            return self._values.copy()
