"""A picklable, mergeable counter registry.

The execution engine's original telemetry had a documented hole: when
simulations fan out across a process pool, each forked worker
accumulates cache counters in its own address space and the parent
reports only its own (usually zero) work.  The fix is structural —
workers measure their contribution as a *delta* (counters after the
task minus counters before it) and return it alongside the result;
the parent folds the deltas into one :class:`Counters` so the totals
are exact no matter how the work was partitioned.

:class:`Counters` is intentionally tiny: a name→number mapping with
``incr``/``merge``/``as_dict``.  It pickles cleanly (plain dict state)
so it can cross process boundaries in either direction.

Every component that counts owns exactly one registry, built from a
zero-filled name table declared in the module that increments it
(``SIM_COUNTERS`` in :mod:`repro.sim.fingerprint`, ``STORE_COUNTERS``
in :mod:`repro.store.disk`, and so on).  Declaring every name up front
fixes the registry's key set, so another thread may copy or read it
while the owner increments: the dict never changes size.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Union

Number = Union[int, float]


def counter_delta(
    after: Mapping[str, Number], before: Optional[Mapping[str, Number]]
) -> Dict[str, Number]:
    """Per-task contribution between two counter snapshots.

    Returns only the names that changed (or are new), so the common
    all-cache-hit case ships an empty dict across the pool.  ``before
    is None`` means "everything in ``after`` is new".
    """
    if before is None:
        return {name: value for name, value in after.items() if value}
    delta: Dict[str, Number] = {}
    for name, value in after.items():
        change = value - before.get(name, 0)
        if change:
            delta[name] = change
    return delta


class Counters:
    """Mergeable named counters (ints or floats).

    >>> c = Counters()
    >>> c.incr("simulations")
    >>> c.merge({"simulations": 2, "waves": 0.5})
    >>> c.as_dict()
    {'simulations': 3, 'waves': 0.5}
    """

    __slots__ = ("_values",)

    def __init__(self, values: Optional[Mapping[str, Number]] = None) -> None:
        self._values: Dict[str, Number] = dict(values) if values else {}

    # -- mutation --------------------------------------------------------

    def incr(self, name: str, amount: Number = 1) -> None:
        self._values[name] = self._values.get(name, 0) + amount

    def merge(self, other: Union["Counters", Mapping[str, Number]]) -> "Counters":
        """Add another registry (or plain mapping) into this one."""
        values = other._values if isinstance(other, Counters) else other
        for name, amount in values.items():
            self._values[name] = self._values.get(name, 0) + amount
        return self

    def clear(self) -> None:
        self._values.clear()

    # -- access ----------------------------------------------------------

    def get(self, name: str, default: Number = 0) -> Number:
        return self._values.get(name, default)

    def __getitem__(self, name: str) -> Number:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __bool__(self) -> bool:
        return any(self._values.values())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Counters):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Counters({self._values!r})"

    def as_dict(self) -> Dict[str, Number]:
        return dict(self._values)

    def delta_since(self, before: Mapping[str, Number]) -> Dict[str, Number]:
        """What changed since a previous :meth:`as_dict` snapshot."""
        return counter_delta(self._values, before)

    # -- pickling (``__slots__`` needs explicit state) -------------------

    def __getstate__(self) -> Dict[str, Number]:
        return self._values

    def __setstate__(self, state: Dict[str, Number]) -> None:
        self._values = state


__all__ = ["Counters", "counter_delta"]
