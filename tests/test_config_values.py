"""Configs reject, when they are built, a value they cannot run with.

One table for every config class: each row is a value that used to build
and then failed later (or meant something else) when the config was put to
work.  The error must name the field.
"""

from __future__ import annotations

import pytest

from repro.store import StoreConfig

BAD_VALUES = [
    (StoreConfig, "batch_every", 0),
    (StoreConfig, "batch_every", True),
    (StoreConfig, "batch_every", 2.5),
    (StoreConfig, "max_segment_bytes", 1),
    (StoreConfig, "max_segment_records", 0),
    (StoreConfig, "max_segment_age_s", -1.0),
    (StoreConfig, "max_segment_age_s", float("nan")),
    (StoreConfig, "snapshot_every_records", True),
]


@pytest.mark.parametrize(
    "config_cls, field, value",
    BAD_VALUES,
    ids=[f"{cls.__name__}.{field}={value!r}" for cls, field, value in BAD_VALUES],
)
def test_bad_config_value(config_cls, field, value):
    with pytest.raises(ValueError, match=field):
        config_cls(**{field: value})


@pytest.mark.parametrize("config_cls", sorted({row[0] for row in BAD_VALUES}, key=repr))
def test_defaults_build(config_cls):
    config_cls()
