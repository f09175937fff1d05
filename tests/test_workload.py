"""Unit tests for repro.workload (generator + trace container)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.telephony.call import Call
from repro.workload import TraceDataset, WorkloadConfig, generate_trace


class TestWorkloadConfig:
    def test_defaults_valid(self):
        WorkloadConfig()

    def test_rejects_zero_calls(self):
        with pytest.raises(ValueError):
            WorkloadConfig(n_calls=0)

    @pytest.mark.parametrize(
        "field,value",
        [("n_pairs", 2.5), ("n_pairs", True), ("n_calls", 100.0), ("n_calls", True),
         ("users_per_as", 0), ("users_per_as", 2.5), ("users_per_as", True)],
    )
    def test_rejects_a_count_that_is_not_an_int_of_at_least_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            WorkloadConfig(**{field: value})

    def test_accepts_numpy_ints(self):
        config = WorkloadConfig(n_calls=np.int64(50), n_pairs=np.int32(10), users_per_as=np.uint16(7))
        assert (config.n_calls, config.n_pairs, config.users_per_as) == (50, 10, 7)

    def test_rejects_fraction_overflow(self):
        with pytest.raises(ValueError):
            WorkloadConfig(frac_intra_as=0.6, frac_international=0.6)

    def test_rejects_bad_zipf(self):
        with pytest.raises(ValueError):
            WorkloadConfig(volume_zipf_s=0.0)


class TestGenerateTrace:
    def test_chronological_order(self, small_trace):
        times = [c.t_hours for c in small_trace]
        assert times == sorted(times)

    def test_call_count(self, small_trace):
        assert len(small_trace) == 4_000

    def test_times_within_horizon(self, small_trace):
        assert all(0.0 <= c.t_hours < small_trace.horizon_hours for c in small_trace)

    def test_mix_fractions_near_targets(self, small_world):
        config = WorkloadConfig(n_calls=20_000, n_pairs=150, seed=23)
        trace = generate_trace(small_world.topology, config, n_days=8)
        summary = trace.summary()
        assert summary.frac_international == pytest.approx(config.frac_international, abs=0.05)
        assert 1.0 - summary.frac_inter_as == pytest.approx(config.frac_intra_as, abs=0.05)

    def test_volume_skew_is_heavy_tailed(self, small_trace):
        counts = sorted(small_trace.pair_counts().values(), reverse=True)
        # The busiest pair should dwarf the median pair.
        assert counts[0] > 10 * counts[len(counts) // 2]

    def test_durations_above_minimum(self, small_trace):
        config = small_trace.config
        assert config is not None
        assert all(c.duration_s >= config.min_duration_s for c in small_trace)

    def test_prefixes_within_as_range(self, small_world, small_trace):
        for call in small_trace.calls[:500]:
            assert 0 <= call.src_prefix < small_world.topology.as_of(call.src_asn).n_prefixes

    def test_countries_match_topology(self, small_world, small_trace):
        for call in small_trace.calls[:500]:
            assert call.src_country == small_world.topology.country_of_as(call.src_asn)
            assert call.dst_country == small_world.topology.country_of_as(call.dst_asn)

    def test_deterministic_given_seed(self, small_world):
        config = WorkloadConfig(n_calls=500, n_pairs=50, seed=31)
        t1 = generate_trace(small_world.topology, config, n_days=5)
        t2 = generate_trace(small_world.topology, config, n_days=5)
        assert t1.calls == t2.calls

    @pytest.mark.parametrize("n_days", [0, -1, 2.5, True])
    def test_rejects_bad_n_days(self, small_world, n_days):
        with pytest.raises(ValueError, match="n_days"):
            generate_trace(small_world.topology, WorkloadConfig(n_calls=50, n_pairs=10), n_days=n_days)

    def test_different_seeds_differ(self, small_world):
        t1 = generate_trace(small_world.topology, WorkloadConfig(n_calls=500, n_pairs=50, seed=1), n_days=5)
        t2 = generate_trace(small_world.topology, WorkloadConfig(n_calls=500, n_pairs=50, seed=2), n_days=5)
        assert t1.calls != t2.calls


class TestTraceDataset:
    def test_rejects_unsorted(self):
        c1 = Call(call_id=0, t_hours=5.0, src_asn=1, dst_asn=2, src_country="A",
                  dst_country="B", src_user=0, dst_user=1)
        c2 = Call(call_id=1, t_hours=1.0, src_asn=1, dst_asn=2, src_country="A",
                  dst_country="B", src_user=0, dst_user=1)
        with pytest.raises(ValueError, match="sorted"):
            TraceDataset(calls=[c1, c2], n_days=1)

    def test_rejects_zero_days(self):
        with pytest.raises(ValueError):
            TraceDataset(calls=[], n_days=0)

    def test_filter(self, small_trace):
        intl = small_trace.filter(lambda c: c.international)
        assert all(c.international for c in intl)
        assert len(intl) < len(small_trace)

    def test_split_by_day_partitions(self, small_trace):
        by_day = small_trace.split_by_day()
        assert sum(len(v) for v in by_day.values()) == len(small_trace)
        for day, calls in by_day.items():
            assert all(c.day == day for c in calls)

    def test_calls_on_day(self, small_trace):
        day3 = small_trace.calls_on_day(3)
        assert day3 == small_trace.split_by_day().get(3, [])

    def test_summary_counts(self, small_trace):
        summary = small_trace.summary()
        assert summary.n_calls == len(small_trace)
        assert summary.n_as_pairs == len(small_trace.pair_counts())
        assert 0.0 <= summary.frac_wireless <= 1.0

    def test_summary_rows_render(self, small_trace):
        rows = small_trace.summary().rows()
        labels = [r[0] for r in rows]
        assert "Calls" in labels and "Countries/regions" in labels

    def test_jsonl_roundtrip(self, small_trace, tmp_path):
        subset = TraceDataset(calls=small_trace.calls[:100], n_days=small_trace.n_days)
        path = tmp_path / "trace.jsonl"
        subset.save_jsonl(path)
        loaded = TraceDataset.load_jsonl(path)
        assert loaded.calls == subset.calls
        assert loaded.n_days == subset.n_days

    def test_load_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"call_id": 0}\n')
        with pytest.raises(ValueError, match="header"):
            TraceDataset.load_jsonl(path)


class TestArrivalSeasonality:
    def test_evening_peak(self, small_trace):
        import numpy as np

        hours = np.array([c.t_hours % 24.0 for c in small_trace]).astype(int)
        evening = np.mean((hours >= 17) & (hours < 22))
        night = np.mean(hours < 5)
        assert evening > 2.0 * night

    def test_weekend_heavier_than_midweek(self, small_world):
        import numpy as np

        from repro.workload import WorkloadConfig, generate_trace

        trace = generate_trace(
            small_world.topology,
            WorkloadConfig(n_calls=40_000, n_pairs=100, seed=71),
            n_days=14,
        )
        days = np.array([c.day for c in trace]) % 7
        weekend = np.mean((days == 5) | (days == 6)) / 2.0
        midweek = np.mean((days == 1) | (days == 2)) / 2.0
        assert weekend > midweek
