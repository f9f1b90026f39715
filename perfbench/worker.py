"""One benchmark job in a fresh interpreter; prints its result as one JSON line.

``run.py`` starts it as ``python3 -I perfbench/worker.py '<job json>'``.  The
job first times the set-up a user pays before their first command:
importing ``blockdet`` from the checkout's ``src`` and building the CLI
parser.  Every other import waits until after that, so that modules the
harness shares with ``blockdet`` are counted in the set-up.

Every reported time is scaled to the reference speed of ``calibrate.py``:
an operation by the calibration rounds timed just before and just after
it, set-up by rounds timed in the same interpreter right after it.  The
raw times are reported beside them.

Jobs:

- ``{"mode": "run", ...}`` runs passes of a workload until ``seconds`` have
  passed and enough latency samples exist.  Without tracing, a probe
  interpreter measures set-up again after every pass, so the set-up
  samples spread over the whole run.  With ``trace`` set, odd passes run
  under the tracer and even passes without it.
- ``{"mode": "probe", "replay": null | {...}}`` only measures set-up, and
  optionally replays pass 0 of a workload so its stdout can be compared
  byte for byte with the run's.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# p90 needs at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 100


def _setup():
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from blockdet import cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"blockdet was imported from {cli.__file__}, not from {SRC}")
    sys.path.insert(0, HERE)
    return cli, setup_s


def _caller(cli):
    """``call(argv)`` runs one operation and returns (seconds, exit code or
    None if it raised, stdout, stderr)."""
    import contextlib
    import io
    import traceback

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except Exception:
            rc = None
        elapsed = time.perf_counter() - t0
        if rc is None:
            err.write(traceback.format_exc())
        return elapsed, rc, out.getvalue(), err.getvalue()

    return call


def _probe() -> tuple[float, float]:
    import json
    import subprocess

    job = json.dumps({"mode": "probe", "replay": None})
    proc = subprocess.run([sys.executable, "-I", os.path.abspath(__file__), job],
                          capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(proc.stdout)
    return result["setup_s"], result["setup_raw_s"]


def _problem(op, rc, out: str, err: str):
    if rc is None:
        return f"raised: {err}"
    if err:
        return f"wrote to stderr: {err!r}"
    return op.oracle(rc, out)


def _run(cli, job: dict, setup: tuple[float, float]) -> dict:
    import resource
    import statistics

    from calibrate import at_reference, round_s
    from layers import COUNTERS, per_layer_metrics, span_targets
    from tracer import Tracer
    from workloads import pass_ops

    call = _caller(cli)
    tracer = Tracer("blockdet") if job["trace"] else None
    targets = span_targets() if tracer else None
    min_samples = 0 if job["tiny"] else MIN_LATENCY_SAMPLES
    walls: dict[bool, list[float]] = {False: [], True: []}
    raw_walls: list[float] = []
    latencies_ms: list[float] = []
    setups = [setup]
    problems: list[str] = []
    first_pass: list = []
    attempted = failed = index = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and index % 2 == 1
        ops = pass_ops(job["workload"], job["seed"], index, job["tiny"])
        if traced:
            tracer.install(targets, COUNTERS)
        records = []
        rounds = [round_s()]
        for k, op in enumerate(ops):
            if traced:
                tracer.op = attempted + k
            records.append(call(op.argv))
            rounds.append(round_s())
        if traced:
            tracer.uninstall()
        scaled = [at_reference(rec[0], (rounds[k] + rounds[k + 1]) / 2) for k, rec in enumerate(records)]
        walls[traced].append(sum(scaled))
        if not traced:
            raw_walls.append(sum(rec[0] for rec in records))
        for op, elapsed, (_, rc, out, err) in zip(ops, scaled, records):
            attempted += 1
            problem = _problem(op, rc, out, err)
            if problem:
                failed += 1
                problems.append(f"{' '.join(op.argv)}: {problem}")
            if not traced:
                latencies_ms.append(elapsed * 1000.0)
            if index == 0:
                first_pass.append([rc, out, problem is None])
        index += 1
        if not tracer:
            setups.append(_probe())
        enough = index >= 2 if tracer else len(latencies_ms) >= min_samples
        if enough and time.perf_counter() - start >= job["seconds"]:
            break
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "first_pass": first_pass,
        "pass_walls_s": walls[False],
        "raw_pass_walls_s": raw_walls,
        "latencies_ms": latencies_ms,
        "setup_samples_s": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        summary = tracer.summary()
        result["per_layer"] = per_layer_metrics(summary, len(walls[True]), overhead)
        result["traced_passes"] = len(walls[True])
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    return result


def _replay(cli, replay: dict) -> list:
    from workloads import pass_ops

    call = _caller(cli)
    ops = pass_ops(replay["workload"], replay["seed"], 0, replay["tiny"])
    return [[rc, out] for _, rc, out, _ in (call(op.argv) for op in ops)]


def main() -> int:
    cli, setup_raw_s = _setup()
    import json

    from calibrate import at_reference, settled_round_s

    setup_s = at_reference(setup_raw_s, settled_round_s())
    job = json.loads(sys.argv[1])
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if job["mode"] == "run":
        result.update(_run(cli, job, (setup_s, setup_raw_s)))
    elif job.get("replay"):
        result["replay"] = _replay(cli, job["replay"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
