"""The behaviour shared by the per-call value records.

:class:`~repro.telephony.call.Call`, :class:`~repro.telephony.call.CallOutcome`
and :class:`~repro.netmodel.metrics.PathMetrics` are built once or more per
replayed or served call.  Each is a ``typing.NamedTuple`` field base plus a
subclass whose ``__new__`` validates the values and calls ``tuple.__new__``:
immutable, with no per-field ``object.__setattr__`` as a frozen dataclass
makes.  :class:`Record`, first in the subclass's bases, takes back what a
tuple would otherwise add over the dataclass it replaces:

* equality: a record equals only a record of its own class, never a plain
  tuple with the same items;
* the hash stays the hash of the field tuple, the value the dataclass
  computed, so no set or dict order moves;
* ordering: ``<`` and its kin raise ``TypeError``;
* ``_make`` (and so ``_replace``) goes through the validating ``__new__``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

__all__ = ["Record"]


def _unorderable(op: str) -> Callable[[Any, Any], bool]:
    def compare(self: Any, other: Any) -> bool:
        raise TypeError(
            f"'{op}' not supported between instances of "
            f"{type(self).__name__!r} and {type(other).__name__!r}"
        )

    return compare


class Record:
    """Mixin for a validated ``NamedTuple`` value record (see the module)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)  # type: ignore[arg-type]
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)  # type: ignore[arg-type]
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    __lt__ = _unorderable("<")
    __le__ = _unorderable("<=")
    __gt__ = _unorderable(">")
    __ge__ = _unorderable(">=")

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Any:
        return cls(*iterable)
