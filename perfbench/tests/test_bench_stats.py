import pytest

from stats import Tracer, failed_frac, nearest_rank, run_tail, span_cost_ns, tail


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 51))  # 50 samples
    pct, value = tail(values)
    assert (pct, value) == (80.0, 40)
    assert sum(v > value for v in values) == 10


def test_tail_picks_highest_qualifying_tenth():
    values = list(range(36))
    pct, value = tail(values)
    assert pct == 72.2
    assert sum(v > value for v in values) == 10
    # One step higher would leave only nine beyond.
    assert sum(v > nearest_rank(sorted(values), 72.3) for v in values) == 9


def test_tail_caps_at_p99_9_and_ignores_order():
    values = list(range(100_000, 0, -1))
    pct, value = tail(values)
    assert pct == 99.9
    assert value == 99_900


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail(list(range(19)))
    assert tail(list(range(20))) == (50.0, 9)


def test_failed_frac_counts_failures_over_all_submitted():
    assert failed_frac(["COMPLETED", "FAILED", "COMPLETED", "FAILED"]) == 0.5
    assert failed_frac(["COMPLETED"] * 3) == 0.0
    # Unfinished tasks stay in the base: they were submitted.
    assert failed_frac(["FAILED", "QUEUED", "DISPATCHED", "COMPLETED"]) == 0.25
    with pytest.raises(ValueError):
        failed_frac([])


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0, 10, 15, 20, 22, 40, 70, 100])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("parent"):              # 0 .. 100
        with tracer.span("child"):           # 10 .. 70
            with tracer.span("grandchild"):  # 15 .. 20
                pass
            with tracer.span("grandchild"):  # 22 .. 40
                pass
    parent, child, g1, g2 = tracer.spans
    assert (g1.ns, g2.ns) == (5, 18)
    assert child.ns == 60 and child.self_ns == 60 - 5 - 18
    assert parent.ns == 100 and parent.self_ns == 100 - 60
    assert tracer.total_ms("grandchild") == 23 / 1e6
    assert tracer.p50_ms("child", self_time=True) == 37 / 1e6


def test_run_tail_takes_median_of_large_bags():
    bags = [list(range(2000)) for _ in range(4)]
    bags.append([v * 3 for v in range(2000)])  # one stalled bag
    rule, value = run_tail(bags)
    assert value == tail(bags[0])[1] == 1989  # p99.5 of each normal bag
    assert rule.startswith("median over 5 bags")


def test_run_tail_pools_small_bags():
    bags = [list(range(12)), list(range(12, 24)), list(range(24, 36))]
    rule, value = run_tail(bags)
    assert (rule, value) == ("p72.2 of 36 samples", 25)


def test_a_recorded_span_costs_more_than_a_null_one():
    assert span_cost_ns() > 0
