"""The open-loop scheduler times from the due instant and reports lateness."""

import pytest

from wire import OpenLoopClock


def test_due_now_pops_only_what_is_due():
    clock = OpenLoopClock([0.0, 0.010, 0.020, 0.500], t0=100.0)
    assert [i for i, _ in clock.due_now(100.015)] == [0, 1]
    assert clock.sleep_for(100.015) == pytest.approx(0.005)
    assert clock.due_now(100.015) == []
    assert [i for i, _ in clock.due_now(100.600)] == [2, 3]
    assert clock.sleep_for(100.600) is None


def test_lateness_is_measured_against_the_due_instant():
    clock = OpenLoopClock([0.0, 0.010, 0.020], t0=50.0)
    # The generator stalled: it only gets to look at the schedule at 50.1.
    popped = clock.due_now(50.100)
    assert [t for _, t in popped] == pytest.approx([50.0, 50.010, 50.020])
    assert clock.lateness == pytest.approx([0.100, 0.090, 0.080])


def test_latency_origin_is_the_due_time_not_the_send_time():
    clock = OpenLoopClock([0.0], t0=10.0)
    ((_, t_ref),) = clock.due_now(10.030)  # sent 30 ms late
    t_reply = 10.035  # the server itself took 5 ms
    # ``t_ref`` is what the generator files as the request's latency origin.
    assert t_reply - t_ref == pytest.approx(0.035)
    assert clock.sleep_for(10.030) is None
