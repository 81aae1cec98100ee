"""Tests of the benchmark's own logic: span arithmetic, rebinding and scoring.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
import threading
import types

import pytest

import run
import tracer
from tracer import Span


def _tree() -> list[Span]:
    # thread 1:  root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    # thread 2:  root2 [2, 8] > d [3, 5]   (overlaps thread 1 in wall time)
    return [
        Span(2, "mod_a.a", 1.0, 4.0, 0, 1, {}),
        Span(3, "mod_c.c", 6.0, 7.0, 4, 1, {"terms": 5}),
        Span(4, "mod_b.b", 5.0, 9.0, 0, 1, {}),
        Span(0, "mod_a.root", 0.0, 10.0, None, 1, {}),
        Span(5, "mod_c.c", 3.0, 5.0, 1, 2, {"terms": 7}),
        Span(1, "mod_b.root2", 2.0, 8.0, None, 2, {}),
    ]


def test_self_time_on_a_nested_tree_from_two_threads():
    selfs = tracer.self_seconds(_tree())
    assert selfs == {0: 3.0, 2: 3.0, 4: 3.0, 3: 1.0, 1: 4.0, 5: 2.0}
    agg = tracer.Aggregate(_tree())
    assert dict(agg.module_self) == {"mod_a": 6.0, "mod_b": 7.0, "mod_c": 3.0}
    # self times partition the busy time of each thread
    assert sum(selfs.values()) == pytest.approx(10.0 + 6.0)
    assert agg.calls("mod_c.c") == 2
    assert agg.work("terms") == 12


def test_inclusive_time_counts_only_outermost_calls():
    spans = [
        Span(0, "m.f", 0.0, 10.0, None, 1, {}),
        Span(1, "m.g", 1.0, 9.0, 0, 1, {}),
        Span(2, "m.f", 2.0, 5.0, 1, 1, {}),  # recursive call under g
        Span(3, "m.h", 11.0, 12.0, None, 1, {}),
    ]
    agg = tracer.Aggregate(spans)
    assert agg.inclusive("m.f") == 10.0
    assert agg.inclusive("m.g") == 8.0
    assert agg.inclusive("m.f", "m.h") == 11.0
    assert agg.inclusive("m.missing") == 0.0


def test_tracer_nests_spans_per_thread():
    t = tracer.Tracer()
    inner = t.wrap("m.inner", lambda: None)
    barrier = threading.Barrier(2, timeout=10)

    def outer():
        barrier.wait()  # both threads are inside "m.outer" at once
        inner()

    outer_w = t.wrap("m.outer", outer)
    threads = [threading.Thread(target=outer_w) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    by_id = {s.id: s for s in t.spans}
    inners = [s for s in t.spans if s.name == "m.inner"]
    assert len(inners) == 2 and len(t.spans) == 4
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "m.outer" and parent.thread == s.thread
        assert parent.start <= s.start <= s.end <= parent.end
    assert {by_id[s.parent].id for s in inners} == {s.id for s in t.spans if s.name == "m.outer"}


def test_tracer_loses_no_span_under_thread_switching():
    t = tracer.Tracer()
    inner = t.wrap("m.inner", lambda: None)
    outer = t.wrap("m.outer", lambda: inner())

    def worker():
        for _ in range(500):
            outer()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert len(t.spans) == 4 * 500 * 2
    assert len({s.id for s in t.spans}) == len(t.spans)
    by_id = {s.id: s for s in t.spans}
    for s in t.spans:
        if s.name == "m.inner":
            assert by_id[s.parent].name == "m.outer" and by_id[s.parent].thread == s.thread


def test_span_recorded_when_the_call_raises():
    t = tracer.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("m.boom", boom)()
    assert [s.name for s in t.spans] == ["m.boom"]


def test_rebind_reaches_from_imports():
    def f(x):
        return x + 1

    a = types.ModuleType("fake.a")
    b = types.ModuleType("fake.b")
    a.f = f
    b.f = f  # as after ``from .a import f``
    b.alias = f
    t = tracer.Tracer()
    w = t.wrap("a.f", f, work=lambda args: {"xs": args["x"]})
    tracer.rebind([a, b], {id(f): w})
    assert a.f is w and b.f is w and b.alias is w
    assert b.f(x=4) == 5
    assert t.spans[0].work == {"xs": 4}


def test_ratio_with_empty_base_is_zero():
    metrics = tracer.per_layer([])
    assert metrics["quadrature.value_pairs"] == (0, "count")
    assert metrics["quadrature.us_per_value_pair"] == (0.0, "us")
    assert metrics["circle.ns_per_term"] == (0.0, "ns")


def _rep(statuses=None, digest="d0", code=0):
    statuses = statuses or dict.fromkeys(run.CHECKS, "PASS")
    return run.Rep(wall_s=1.0, setup_s=0.5, exit_code=code, result={"statuses": statuses, "digest": digest})


def test_score_all_pass():
    expected = run.WORKLOADS["constant"].expected()
    assert run.score([_rep(), _rep()], expected) == (12, 0)


def test_score_forced_fail_counts_one_check():
    expected = run.WORKLOADS["constant"].expected()
    statuses = dict.fromkeys(run.CHECKS, "PASS") | {"besov": "FAIL"}
    assert run.score([_rep(), _rep(statuses, code=1)], expected) == (12, 6)
    assert run.score([_rep(), _rep(statuses)], expected) == (12, 1)


def test_score_expected_skip():
    expected = run.WORKLOADS["jump"].expected()
    assert expected["interaction"] == "SKIP"
    statuses = dict.fromkeys(run.CHECKS, "PASS")
    assert run.score([_rep(statuses)], expected) == (6, 1)
    assert run.score([_rep(statuses | {"interaction": "SKIP"})], expected) == (6, 0)


def test_score_digest_mismatch_fails_every_check():
    expected = run.WORKLOADS["constant-jobs2"].expected()
    assert run.score([_rep(digest="d0"), _rep(digest="d1"), _rep(digest="d0")], expected) == (18, 6)


def test_score_error_fails_every_check():
    expected = run.WORKLOADS["constant"].expected()
    crashed = run.Rep(wall_s=1.0, exit_code=1, error="child printed no result (exit 1)")
    assert run.score([_rep(), crashed], expected) == (12, 6)
