"""Which ``blockdet`` functions the traced run wraps, and the per-layer
metrics derived from their spans.

Every per-layer figure is a total over the traced passes divided by their
number, so it reads per pass of the workload's fixed operation list.
"""

from __future__ import annotations

import importlib

_SPANS = [
    ("matrix.matmul", "blockdet.matrix", "Matrix.__mul__"),
    ("matrix.addneg", "blockdet.matrix", "Matrix.__add__"),
    ("matrix.addneg", "blockdet.matrix", "Matrix.__sub__"),
    ("matrix.addneg", "blockdet.matrix", "Matrix.__neg__"),
    ("matrix.addneg", "blockdet.matrix", "Matrix.scale"),
    ("matrix.commutes", "blockdet.matrix", "commutes"),
    ("matrix.det", "blockdet.matrix", "det_commutative"),
    ("ncdet.row_det", "blockdet.ncdet", "nc_row_det"),
    ("conditions.satisfies", "blockdet.conditions", "matrix_satisfies"),
    ("verify.generate", "blockdet.verify", "gen_satisfying"),
    ("verify.pick_generator", "blockdet.verify", "pick_generator"),
    ("verify.campaign", "blockdet.verify", "run_campaign"),
    ("verify.check_identity", "blockdet.verify", "check_identity"),
    ("traces.normal_form", "blockdet.traces", "word_normal_form"),
    ("traces.symbolic_row_det", "blockdet.traces", "symbolic_row_det"),
    ("traces.check", "blockdet.traces", "check_colswap_identity"),
    ("traces.check", "blockdet.traces", "check_transpose_identity"),
    ("traces.check", "blockdet.traces", "check_rowswap_identity"),
    ("cli.main", "blockdet.cli", "main"),
]

COUNTERS = [("ring.boxed", "blockdet.ring", "RingValue.__init__")]

_BUILDERS = ("family_condition", "complete_condition", "empty_condition")


def span_targets() -> list[tuple[str, str, str]]:
    """``(layer, module, function)`` for every traced function.

    ``conditions.build`` covers every ``cond_*`` constructor defined in
    ``blockdet.conditions`` plus the named family builders.
    """
    conditions = importlib.import_module("blockdet.conditions")
    builders = sorted(
        name
        for name, fn in vars(conditions).items()
        if callable(fn)
        and getattr(fn, "__module__", None) == conditions.__name__
        and (name.startswith("cond_") or name in _BUILDERS)
    )
    return _SPANS + [("conditions.build", "blockdet.conditions", name) for name in builders]


# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "trace.overhead": ("ratio", "lower"),
    "cli.main.calls": ("count/pass", "lower"),
    "cli.main.self_s": ("s/pass", "lower"),
    "matrix.matmul.calls": ("count/pass", "lower"),
    "matrix.matmul.self_s": ("s/pass", "lower"),
    "matrix.addneg.calls": ("count/pass", "lower"),
    "matrix.addneg.self_s": ("s/pass", "lower"),
    "ring.boxed.count": ("count/pass", "lower"),
    "matrix.commutes.calls": ("count/pass", "lower"),
    "matrix.commutes.self_s": ("s/pass", "lower"),
    "conditions.satisfies.calls": ("count/pass", "lower"),
    "conditions.satisfies.self_s": ("s/pass", "lower"),
    "conditions.satisfies.commutes_per_call": ("ratio", "lower"),
    "conditions.build.calls": ("count/pass", "lower"),
    "conditions.build.self_s": ("s/pass", "lower"),
    "verify.generate.calls": ("count/pass", "lower"),
    "verify.generate.self_s": ("s/pass", "lower"),
    "verify.generate.yield": ("ratio", "higher"),
    "verify.pick_generator.calls": ("count/pass", "lower"),
    "matrix.det.calls": ("count/pass", "lower"),
    "matrix.det.self_s": ("s/pass", "lower"),
    "ncdet.row_det.calls": ("count/pass", "lower"),
    "ncdet.row_det.self_s": ("s/pass", "lower"),
    "ncdet.row_det.matmuls_per_call": ("ratio", "lower"),
    "traces.normal_form.calls": ("count/pass", "lower"),
    "traces.normal_form.self_s": ("s/pass", "lower"),
    "traces.symbolic_row_det.calls": ("count/pass", "lower"),
    "traces.symbolic_row_det.self_s": ("s/pass", "lower"),
    "traces.check.calls": ("count/pass", "lower"),
    "traces.check.self_s": ("s/pass", "lower"),
    "verify.campaign.self_s": ("s/pass", "lower"),
    "verify.check_identity.self_s": ("s/pass", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(summary: dict, passes: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics from ``Tracer.summary()`` over ``passes`` traced
    passes.  A ratio whose base is zero (the layer did not run) reads 0."""
    layers, nested, counts = summary["layers"], summary["nested"], summary["counts"]
    out = {"trace.overhead": overhead}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            out[name] = layers.get(layer, {}).get(field, 0) / passes
    out["ring.boxed.count"] = counts.get("ring.boxed", 0) / passes

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    out["conditions.satisfies.commutes_per_call"] = _ratio(
        nested.get("conditions.satisfies>matrix.commutes", 0), calls("conditions.satisfies"))
    out["verify.generate.yield"] = _ratio(
        calls("verify.generate"), nested.get("verify.generate>conditions.satisfies", 0))
    out["ncdet.row_det.matmuls_per_call"] = _ratio(
        nested.get("ncdet.row_det>matrix.matmul", 0), calls("ncdet.row_det"))
    return {name: out[name] for name in PER_LAYER}
