"""Relaying options: the action space of the relay-selection problem.

A call between a caller and a callee can take one of three kinds of path
(Figure 7 of the paper):

* ``DIRECT`` -- the default BGP-derived Internet path,
* ``BOUNCE`` -- caller -> relay -> callee, "bouncing off" one datacenter,
* ``TRANSIT`` -- caller -> ingress relay -> (private backbone) -> egress
  relay -> callee.

:class:`RelayOption` instances are hashable value objects used as dictionary
keys throughout the history store, predictor and bandit.  Each one computes
its hash once, and its relay-id tuple and reversed twin once on first use,
so the per-call paths that key dicts by options and normalise call menus
pay an attribute read for each.

:class:`RelayOutage` is a window in which one relay, and every option
through it, is down.  It lives here rather than beside the world model
so the controller's fault plan can name outages without importing it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["OptionKind", "RelayOption", "DIRECT", "RelayOutage"]


class OptionKind(enum.Enum):
    """The three path kinds available to a call."""

    DIRECT = "direct"
    BOUNCE = "bounce"
    TRANSIT = "transit"


@dataclass(frozen=True, slots=True, eq=False)
class RelayOption:
    """One relaying option.

    ``ingress`` / ``egress`` are relay identifiers (integers assigned by the
    topology).  For ``DIRECT`` both are ``None``; for ``BOUNCE`` they are
    equal; for ``TRANSIT`` they differ.

    Equality and hashing are by value, and ``hash(o)`` is exactly
    ``hash((kind, ingress, egress))``, so dicts and sets of options iterate
    as they would for the plain tuples.  That hash depends on the process's
    string-hash seed (the kind hashes by name), which is why pickling
    rebuilds an option from its fields instead of copying its slots.
    """

    kind: OptionKind
    ingress: int | None = None
    egress: int | None = None
    _hash: int = field(init=False, repr=False)
    # Filled on first use: most options in a world's menus never need them.
    _relay_ids: tuple[int, ...] | None = field(init=False, repr=False)
    _twin: RelayOption | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind is OptionKind.DIRECT:
            if self.ingress is not None or self.egress is not None:
                raise ValueError("DIRECT options carry no relay identifiers")
        elif self.kind is OptionKind.BOUNCE:
            if self.ingress is None or self.ingress != self.egress:
                raise ValueError("BOUNCE options need ingress == egress relay id")
        elif self.kind is OptionKind.TRANSIT:
            if self.ingress is None or self.egress is None or self.ingress == self.egress:
                raise ValueError("TRANSIT options need two distinct relay ids")
        set_slot = object.__setattr__
        set_slot(self, "_hash", hash((self.kind, self.ingress, self.egress)))
        set_slot(self, "_relay_ids", None)
        set_slot(self, "_twin", None)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not RelayOption:
            return NotImplemented
        return (
            self.kind is other.kind  # type: ignore[attr-defined]
            and self.ingress == other.ingress  # type: ignore[attr-defined]
            and self.egress == other.egress  # type: ignore[attr-defined]
        )

    def __reduce__(self):
        return (RelayOption, (self.kind, self.ingress, self.egress))

    @staticmethod
    def direct() -> "RelayOption":
        return DIRECT

    @staticmethod
    def bounce(relay_id: int) -> "RelayOption":
        return RelayOption(OptionKind.BOUNCE, ingress=relay_id, egress=relay_id)

    @staticmethod
    def transit(ingress: int, egress: int) -> "RelayOption":
        return RelayOption(OptionKind.TRANSIT, ingress=ingress, egress=egress)

    @property
    def is_relayed(self) -> bool:
        """True for bounce and transit options (anything using the overlay)."""
        return self.kind is not OptionKind.DIRECT

    def relay_ids(self) -> tuple[int, ...]:
        """The distinct relay ids this option uses, in path order."""
        relay_ids = self._relay_ids
        if relay_ids is None:
            if self.kind is OptionKind.DIRECT:
                relay_ids = ()
            elif self.kind is OptionKind.BOUNCE:
                assert self.ingress is not None
                relay_ids = (self.ingress,)
            else:
                assert self.ingress is not None and self.egress is not None
                relay_ids = (self.ingress, self.egress)
            object.__setattr__(self, "_relay_ids", relay_ids)
        return relay_ids

    def reversed(self) -> "RelayOption":
        """The same option seen from the callee's side (transit swaps ends).

        A transit option builds its twin once and the two point at each
        other, so ``o.reversed().reversed() is o``.
        """
        twin = self._twin
        if twin is None:
            if self.kind is not OptionKind.TRANSIT:
                return self
            assert self.ingress is not None and self.egress is not None
            twin = RelayOption.transit(self.egress, self.ingress)
            object.__setattr__(twin, "_twin", self)
            object.__setattr__(self, "_twin", twin)
        return twin

    def __str__(self) -> str:
        if self.kind is OptionKind.DIRECT:
            return "direct"
        if self.kind is OptionKind.BOUNCE:
            return f"bounce({self.ingress})"
        return f"transit({self.ingress}->{self.egress})"


#: The singleton default-path option.
DIRECT = RelayOption(OptionKind.DIRECT)


@dataclass(frozen=True, slots=True)
class RelayOutage:
    """One relay being down for a half-open time window ``[start, end)``."""

    relay_id: int
    start_hours: float
    end_hours: float

    def __post_init__(self) -> None:
        if self.end_hours <= self.start_hours:
            raise ValueError(
                f"outage window must be non-empty: [{self.start_hours}, {self.end_hours})"
            )

    def active_at(self, t_hours: float) -> bool:
        return self.start_hours <= t_hours < self.end_hours
