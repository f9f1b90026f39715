import json
import os
import shutil
import subprocess
import sys

import pytest

from layers import PER_LAYER, span_targets
from run import END_TO_END
from workloads import WORKLOADS, pass_ops, rowswap_holds

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert list(result["metrics"]) == list(expected)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "campaign-modp", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_passes_are_seeded(workload):
    def argvs(seed, index):
        return [op.argv for op in pass_ops(workload, seed, index)]

    assert argvs(3, 1) == argvs(3, 1)
    assert sorted(argvs(3, 1)) != sorted(argvs(4, 1)) or workload == "symbolic-sweep"
    assert argvs(3, 1) != argvs(3, 2)


def test_rowswap_boundary():
    assert rowswap_holds(2, 3, None)
    assert rowswap_holds(2, 3, ((2, 1), (2, 2)))  # same row
    assert rowswap_holds(2, 3, ((2, 1), (3, 1)))  # same column
    assert rowswap_holds(3, 4, ((2, 1), (3, 2)))  # order of rows 2, 4 kept
    assert not rowswap_holds(2, 3, ((2, 1), (3, 2)))  # rows 2 and 3 trade places


def test_oracles_reject_wrong_output():
    op = next(op for op in pass_ops("campaign-modp", 1, 0, tiny=True) if op.argv[2] == "f")
    seed = op.argv[op.argv.index("--seed") + 1]
    good = f"condition=f trials=2 failures=0 seed={seed} generator=f-slots\n"
    assert op.oracle(0, good) is None
    assert op.oracle(1, good) is not None
    assert op.oracle(0, good.replace("failures=0", "failures=1")) is not None


def test_tracer_rebinds_every_blockdet_import_of_a_traced_function():
    import blockdet.cli  # noqa: F401  (imports every submodule)
    from layers import COUNTERS
    from tracer import Tracer

    targets = span_targets()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "blockdet"]
    functions = [getattr(sys.modules[module], name) for _, module, name in targets if "." not in name]
    tracer = Tracer("blockdet")
    tracer.install(targets, COUNTERS)
    try:
        leftovers = [(m.__name__, key) for m in modules for key, value in vars(m).items()
                     if any(value is fn for fn in functions)]
    finally:
        tracer.uninstall()
    assert leftovers == []
    assert [getattr(sys.modules[module], name) for _, module, name in targets if "." not in name] == functions


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
