"""Unit tests for repro.telephony.call."""

from __future__ import annotations

import inspect

import pytest

from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption
from repro.telephony.call import Call, CallOutcome


def make_call(**overrides) -> Call:
    defaults = dict(
        call_id=1,
        t_hours=30.5,
        src_asn=1001,
        dst_asn=1002,
        src_country="US",
        dst_country="IN",
        src_user=5,
        dst_user=9,
    )
    defaults.update(overrides)
    return Call(**defaults)


class TestCall:
    def test_day_from_time(self):
        assert make_call(t_hours=0.0).day == 0
        assert make_call(t_hours=23.99).day == 0
        assert make_call(t_hours=24.0).day == 1
        assert make_call(t_hours=49.5).day == 2

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            make_call(t_hours=-1.0)

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            make_call(duration_s=0.0)

    def test_international_flag(self):
        assert make_call().international
        assert not make_call(dst_country="US").international

    def test_inter_as_flag(self):
        assert make_call().inter_as
        assert not make_call(dst_asn=1001).inter_as

    def test_as_pair_is_canonical(self):
        assert make_call(src_asn=9, dst_asn=3).as_pair == (3, 9)
        assert make_call(src_asn=3, dst_asn=9).as_pair == (3, 9)

    def test_any_wireless(self):
        assert not make_call().any_wireless
        assert make_call(src_wireless=True).any_wireless
        assert make_call(dst_wireless=True).any_wireless

    def test_dict_roundtrip(self):
        call = make_call(src_wireless=True, src_prefix=3)
        assert Call.from_dict(call.to_dict()) == call

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make_call().t_hours = 5.0  # type: ignore[misc]


class TestCallOutcome:
    METRICS = PathMetrics(rtt_ms=100.0, loss_rate=0.01, jitter_ms=5.0)

    def test_poor_rating(self):
        outcome = CallOutcome(call=make_call(), option=DIRECT, metrics=self.METRICS)
        assert not outcome.poor_rating
        assert outcome.with_rating(1).poor_rating
        assert outcome.with_rating(2).poor_rating
        assert not outcome.with_rating(3).poor_rating

    @pytest.mark.parametrize("rating", [0, 6, -1])
    def test_rejects_out_of_range_rating(self, rating):
        with pytest.raises(ValueError):
            CallOutcome(call=make_call(), option=DIRECT, metrics=self.METRICS, rating=rating)

    def test_with_rating_preserves_fields(self):
        outcome = CallOutcome(
            call=make_call(), option=RelayOption.bounce(2), metrics=self.METRICS
        )
        rated = outcome.with_rating(4)
        assert rated.option == RelayOption.bounce(2)
        assert rated.metrics == self.METRICS
        assert rated.rating == 4


class TestRecordSemantics:
    """The three per-call records are validated tuples that keep the
    frozen dataclass's contract: field names, order and defaults, equality
    within the class only, the hash of the field tuple, no ordering, and a
    validating ``_replace``."""

    OUTCOME = CallOutcome(
        call=make_call(), option=RelayOption.bounce(2), metrics=TestCallOutcome.METRICS
    )

    @pytest.mark.parametrize("record", [make_call(), OUTCOME, TestCallOutcome.METRICS])
    def test_equal_only_within_the_class(self, record):
        twin = type(record)(*record)
        assert record == twin and not record != twin
        assert record != tuple(record) and not record == tuple(record)
        assert tuple(record) != record and not tuple(record) == record
        assert record != list(record)

    @pytest.mark.parametrize("record", [make_call(), OUTCOME, TestCallOutcome.METRICS])
    def test_hash_is_the_field_tuple_hash(self, record):
        assert hash(record) == hash(tuple(getattr(record, f) for f in record._fields))
        assert len({record, type(record)(*record)}) == 1

    @pytest.mark.parametrize("record", [make_call(), OUTCOME, TestCallOutcome.METRICS])
    def test_unorderable(self, record):
        for compare in (
            lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b
        ):
            with pytest.raises(TypeError):
                compare(record, record)
            with pytest.raises(TypeError):
                compare(tuple(record), record)

    @pytest.mark.parametrize("cls", [Call, CallOutcome, PathMetrics])
    def test_new_matches_the_declared_fields(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        assert tuple(p.name for p in params) == cls._fields
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        assert defaults == cls._field_defaults

    def test_replace_and_make_validate(self):
        with pytest.raises(ValueError):
            make_call()._replace(t_hours=-1.0)
        with pytest.raises(ValueError):
            self.OUTCOME._replace(rating=9)
        with pytest.raises(ValueError):
            PathMetrics._make((1.0, 2.0, 0.0))

    def test_no_instance_dict(self):
        for record in (make_call(), self.OUTCOME, TestCallOutcome.METRICS):
            assert not hasattr(record, "__dict__")

    def test_repr_names_every_field(self):
        assert repr(TestCallOutcome.METRICS) == (
            "PathMetrics(rtt_ms=100.0, loss_rate=0.01, jitter_ms=5.0)"
        )
