import sys
import types

import pytest

from tracer import Tracer

_A = '''
def inner(x):
    return x + 1

def outer(x):
    return inner(x) + inner(x)

class Box:
    def __init__(self, v):
        self.v = v

    def mul(self, other):
        return Box(self.v * other.v)
'''

_B = '''
from fakepkg.a import inner

def caller(x):
    return inner(x)
'''


@pytest.fixture
def fakepkg():
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    outsider = types.ModuleType("other")
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    try:
        exec(compile(_A, "fakepkg/a.py", "exec"), a.__dict__)
        exec(compile(_B, "fakepkg/b.py", "exec"), b.__dict__)
        outsider.inner = a.inner
        yield a, b, outsider
    finally:
        for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            sys.modules.pop(name, None)


def _ticking_clock():
    ticks = iter(range(1, 10_000))
    return lambda: float(next(ticks))


SPANS = [
    ("lay.inner", "fakepkg.a", "inner"),
    ("lay.outer", "fakepkg.a", "outer"),
    ("lay.mul", "fakepkg.a", "Box.mul"),
]


def test_nested_counts_and_self_time_are_exact(fakepkg):
    a, _, _ = fakepkg
    tracer = Tracer("fakepkg", clock=_ticking_clock())
    tracer.install(SPANS)
    try:
        assert a.outer(1) == 4
    finally:
        tracer.uninstall()
    # Clock reads: outer starts at 1; inner runs 2->3 and 4->5; outer ends at 6.
    summary = tracer.summary()
    assert summary["layers"]["lay.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert summary["layers"]["lay.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert summary["layers"]["lay.mul"] == {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    assert summary["nested"] == {"lay.outer>lay.inner": 2}
    assert list(tracer.span_parent) == [-1, 0, 0]


def test_rebinds_every_package_import_and_restores(fakepkg):
    a, b, outsider = fakepkg
    originals = (a.inner, b.inner, a.Box.mul)
    tracer = Tracer("fakepkg", clock=_ticking_clock())
    tracer.install(SPANS)
    try:
        assert b.inner is a.inner is not originals[0]
        assert outsider.inner is originals[0]
        b.caller(1)
        a.Box(2).mul(a.Box(3))
    finally:
        tracer.uninstall()
    assert (a.inner, b.inner, a.Box.mul) == originals
    layers = tracer.summary()["layers"]
    assert layers["lay.inner"]["calls"] == 1
    assert layers["lay.mul"]["calls"] == 1


def test_counters_and_operation_ids(fakepkg):
    a, _, _ = fakepkg
    tracer = Tracer("fakepkg", clock=_ticking_clock())
    tracer.install([("lay.outer", "fakepkg.a", "outer")], [("boxes", "fakepkg.a", "Box.__init__")])
    try:
        tracer.op = 7
        a.Box(1).mul(a.Box(2))
        a.outer(0)
    finally:
        tracer.uninstall()
    assert tracer.summary()["counts"] == {"boxes": 3}
    assert list(tracer.span_op) == [7]


def test_missing_target_raises_and_leaves_nothing_patched(fakepkg):
    a, _, _ = fakepkg
    original = a.inner
    tracer = Tracer("fakepkg")
    with pytest.raises(LookupError):
        tracer.install([("lay.inner", "fakepkg.a", "inner"), ("lay.gone", "fakepkg.a", "gone")])
    assert a.inner is original


def test_write_spans(fakepkg, tmp_path):
    a, _, _ = fakepkg
    tracer = Tracer("fakepkg", clock=_ticking_clock())
    tracer.install(SPANS)
    try:
        a.outer(1)
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.tsv"
    tracer.write_spans(str(path))
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["span", "parent", "op", "layer", "start_s", "end_s"]
    assert lines[1:] == ["0\t-1\t-1\tlay.outer\t1.0\t6.0", "1\t0\t-1\tlay.inner\t2.0\t3.0",
                         "2\t0\t-1\tlay.inner\t4.0\t5.0"]
