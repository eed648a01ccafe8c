"""Span arithmetic and attribute restoration of the benchmark tracer."""

import pytest

import tracing
from tracing import Span, Tracer, self_times


def _span(i, parent, start, end, name="x"):
    return Span(i, name, parent, None, start, end)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, None, 0.0, 10.0),   # root: children cover 1-4 and 5-9
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 5.0, 9.0),       # has a child covering 6-8
        _span(3, 2, 6.0, 8.0),
        _span(4, 3, 6.5, 7.0),       # grandchild: not subtracted from 2
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 2.0, 6.0),
        _span(2, 0, 4.0, 8.0),       # overlaps the first child on 4-6
        _span(3, 0, 9.0, 12.0),      # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]   # 40 samples
    value, pct = tracing.tail_percentile(samples)
    assert value == 30.0
    assert sum(x > value for x in samples) == tracing.TAIL_BEYOND
    assert pct == 75.0
    assert tracing.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tracing.tail_percentile([]) == (0.0, 0.0)


def test_failure_counts_by_phase():
    counts = tracing.failure_counts([
        "converged", "GaitFailure@aoa", "GaitFailure@aoa",
        "FailedLiftoff@stance", "NoConvergence", "NoSeed"])
    assert counts["total"] == 5
    assert counts["aoa"] == 2
    assert counts["stance"] == 1
    assert counts["untagged"] == 1
    assert counts["no_seed"] == 1


def _originals():
    return {(t.module.__name__, t.attr): getattr(t.module, t.attr)
            for t in tracing.TARGETS}


def test_tracer_restores_every_attribute():
    before = _originals()
    with Tracer() as tracer:
        during = _originals()
        assert all(during[k] is not before[k] for k in before)
        assert all(during[k].__wrapped__ is before[k] for k in before)
    assert _originals() == before
    assert all(_originals()[k] is before[k] for k in before)
    assert tracer.spans == []


def test_tracer_restores_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(_originals()[k] is before[k] for k in before)


def test_wrapper_records_span_and_passes_result_through():
    from sliphop import DEFAULT_PARAMS, fixedpoint
    with Tracer() as tracer:
        con = fixedpoint.simplified_map_constants(-1.0, 0.5, DEFAULT_PARAMS)
    assert con.t_lo > 0.0
    assert [s.name for s in tracer.spans] == [
        "analytic.simplified_map_constants"]
    assert tracer.spans[0].duration > 0.0
