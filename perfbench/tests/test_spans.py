"""Span recording and self time."""

import threading

from perfbench import spans


def record(name, start, end, parent=None, request=None):
    return [name, start, end, parent, request]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        record("build", 0.0, 10.0),
        record("mine", 1.0, 4.0, parent=0),
        record("close", 2.0, 3.0, parent=1),
        record("save", 6.0, 7.5, parent=0),
    ]
    assert spans.self_times(recorded) == [5.5, 2.0, 1.0, 1.5]


def test_overlapping_children_are_not_subtracted_twice():
    recorded = [
        record("handle", 0.0, 10.0),
        record("a", 1.0, 5.0, parent=0),
        record("b", 3.0, 6.0, parent=0),
        record("c", 4.0, 4.5, parent=0),
    ]
    assert spans.self_times(recorded)[0] == 5.0


def test_children_are_clipped_to_the_parent_interval():
    recorded = [record("p", 2.0, 4.0), record("c", 1.0, 3.0, parent=0)]
    assert spans.self_times(recorded)[0] == 1.0


def test_per_request_sums_self_times_per_request():
    recorded = [
        record("build", 0.0, 4.0, request=0),
        record("bases.all", 1.0, 3.0, parent=0, request=0),
        record("build", 5.0, 6.0, request=1),
        record("bases.all", 5.0, 5.5, parent=2, request=1),
        record("bases.all", 5.5, 5.75, parent=2, request=1),
    ]
    assert spans.per_request(recorded, "build") == [2.0, 0.25]
    assert spans.per_request(recorded, "bases.all") == [2.0, 0.75]
    assert spans.per_request(recorded, "build", self_only=False) == [4.0, 1.0]


def test_tracer_links_parents_and_inherits_request_ids(tmp_path):
    tracer = spans.Tracer(True)
    with tracer.span("build", request=7):
        with tracer.span("bases.all"):
            tracer.count("bases.all.rules", 3)
        tracer.add("store.save", 1.0, 2.0)
    names = [(r[spans.NAME], r[spans.PARENT], r[spans.REQUEST]) for r in tracer.spans]
    assert names == [("build", None, 7), ("bases.all", 0, 7), ("store.save", 0, 7)]
    assert tracer.counts == [("bases.all.rules", 3.0, 1)]
    assert all(r[spans.END] >= r[spans.START] for r in tracer.spans)
    tracer.dump(tmp_path / "spans.json")
    assert (tmp_path / "spans.json").read_text().startswith('{"spans": ')


def test_threads_keep_separate_parent_stacks():
    tracer = spans.Tracer(True)
    inside = threading.Event()
    release = threading.Event()

    def other():
        with tracer.span("other"):
            inside.set()
            release.wait(5)

    thread = threading.Thread(target=other)
    thread.start()
    inside.wait(5)
    with tracer.span("main"):
        release.set()
    thread.join(5)
    assert not thread.is_alive()
    assert [r[spans.PARENT] for r in tracer.spans] == [None, None]


def test_disabled_tracer_records_nothing():
    tracer = spans.Tracer(False)
    with tracer.span("build"):
        tracer.count("n", 1)
        tracer.add("x", 0.0, 1.0)
    assert tracer.spans == [] and tracer.counts == []
    assert spans.span_cost_seconds(100) > 0
