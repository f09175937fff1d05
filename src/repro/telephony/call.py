"""Call records: the unit of the trace and of every experiment.

A :class:`Call` is the *intent* -- who calls whom, when, on what kind of
client.  A :class:`CallOutcome` is the realised result after the replay
assigned a relaying option and the world produced network metrics (plus an
optional user rating).  Policies see only outcomes, never ground truth.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro._record import Record
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import RelayOption

__all__ = ["Call", "CallOutcome"]


class _CallFields(NamedTuple):
    call_id: int
    t_hours: float
    src_asn: int
    dst_asn: int
    src_country: str
    dst_country: str
    src_user: int
    dst_user: int
    duration_s: float = 180.0
    src_prefix: int = 0
    dst_prefix: int = 0
    src_wireless: bool = False
    dst_wireless: bool = False
    #: NAT/firewall pairs cannot establish a direct connection and *must*
    #: relay -- the reason today's relays exist at all (§2.1 of the paper).
    direct_blocked: bool = False


class Call(Record, _CallFields):
    """One call intent from the workload generator.

    ``t_hours`` is absolute simulation time in hours from the start of the
    trace.  ``src_prefix`` / ``dst_prefix`` index sub-AS prefixes (used by
    the spatial-granularity study); wireless flags mark last-hop type.  A
    validated, immutable tuple (:class:`~repro._record.Record`); the
    defaults of ``__new__`` are those of the fields.
    """

    __slots__ = ()

    def __new__(
        cls,
        call_id: int,
        t_hours: float,
        src_asn: int,
        dst_asn: int,
        src_country: str,
        dst_country: str,
        src_user: int,
        dst_user: int,
        duration_s: float = 180.0,
        src_prefix: int = 0,
        dst_prefix: int = 0,
        src_wireless: bool = False,
        dst_wireless: bool = False,
        direct_blocked: bool = False,
    ) -> "Call":
        if t_hours < 0.0:
            raise ValueError(f"t_hours must be >= 0: {t_hours}")
        if duration_s <= 0.0:
            raise ValueError(f"duration_s must be > 0: {duration_s}")
        return tuple.__new__(cls, (
            call_id, t_hours, src_asn, dst_asn, src_country, dst_country,
            src_user, dst_user, duration_s, src_prefix, dst_prefix,
            src_wireless, dst_wireless, direct_blocked,
        ))

    @property
    def day(self) -> int:
        return int(self.t_hours // 24.0)

    @property
    def international(self) -> bool:
        return self.src_country != self.dst_country

    @property
    def inter_as(self) -> bool:
        return self.src_asn != self.dst_asn

    @property
    def as_pair(self) -> tuple[int, int]:
        """Unordered AS pair (canonical low-high order)."""
        if self.src_asn <= self.dst_asn:
            return (self.src_asn, self.dst_asn)
        return (self.dst_asn, self.src_asn)

    @property
    def any_wireless(self) -> bool:
        return self.src_wireless or self.dst_wireless

    def to_dict(self) -> dict[str, Any]:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Call":
        return cls(**data)


class _CallOutcomeFields(NamedTuple):
    call: Call
    option: RelayOption
    metrics: PathMetrics
    rating: int | None = None


class CallOutcome(Record, _CallOutcomeFields):
    """A completed call: intent + relaying decision + realised metrics."""

    __slots__ = ()

    def __new__(
        cls, call: Call, option: RelayOption, metrics: PathMetrics, rating: int | None = None
    ) -> "CallOutcome":
        if rating is not None and not 1 <= rating <= 5:
            raise ValueError(f"rating must be in 1..5: {rating}")
        return tuple.__new__(cls, (call, option, metrics, rating))

    @property
    def poor_rating(self) -> bool:
        """True when a user rated the call 1 or 2 (the paper's PCR rule)."""
        return self.rating is not None and self.rating <= 2

    def with_rating(self, rating: int) -> "CallOutcome":
        return self._replace(rating=rating)
