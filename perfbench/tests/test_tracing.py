import pytest

from tracing import Tracer, patch, self_times


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    tr = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("c"):
            pass
    own = {tr.spans[i].name: t for i, t in self_times(tr.spans).items()}
    assert own == {"root": 3, "a": 2, "b": 1, "c": 4}
    assert sum(own.values()) == tr.named("root")[0].duration


def test_parents_and_totals():
    tr = Tracer(clock=FakeClock([0, 1, 2, 3, 5, 6]))
    with tr.span("root"):
        with tr.span("x"):
            pass
        with tr.span("x"):
            pass
    root, x1, x2 = tr.spans
    assert root.parent is None and x1.parent == root.id and x2.parent == root.id
    assert tr.total("x") == 1 + 2
    assert tr.total("missing") == 0


def test_span_closes_on_exception():
    tr = Tracer(clock=FakeClock([0, 2, 3, 4]))
    with pytest.raises(KeyError):
        with tr.span("boom"):
            raise KeyError
    assert tr.spans[0].duration == 2
    with tr.span("after") as s:
        assert s.parent is None  # the failed span is no longer open


def test_wrap_and_patch_restore():
    class Module:
        @staticmethod
        def f(x):
            return x + 1

    seen = []
    original = Module.f
    tr = Tracer()
    with patch([(Module, "f", tr.wrap("layer.f", Module.f, seen.append))]):
        assert Module.f(1) == 2
    assert Module.f is original
    assert seen == [2]
    assert [s.name for s in tr.spans] == ["layer.f"]
