#!/usr/bin/env python3
"""The blockdet benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the ``blockdet`` found
in the checkout's ``src``.  Each workload (see ``workloads.py``) runs in a
fresh single-threaded interpreter that drives ``blockdet.cli.main(argv)``
in-process with stdout captured; every operation's exit code and stdout are
checked by an oracle, and nothing may reach stderr.  After the run, another
fresh interpreter replays the first pass so its stdout can be compared byte
for byte with the run's.

``wall_s`` is the median summed time of a pass's operations, ``op_ms_p50`` and
``op_ms_p90`` are percentiles over every operation timed, and ``setup_s``
is the median over the run's interpreter, a probe interpreter started
after every pass, and the replay interpreter.  Every time is scaled to the
reference speed of ``calibrate.py``, so that the speed of a shared machine
at the moment of the run cancels out; the raw medians are printed too.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` odd passes run under the span tracer and the result carries
the per-layer metrics, including the tracer's own overhead.  The last line
of stdout is the JSON result; the lines before it repeat the figures for a
reader.  Exits 2, printing no result, when the sources are missing or a job
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
TIME_LIMIT_S = 170.0


class JobFailed(Exception):
    pass


def _job(job: dict, deadline: float) -> dict:
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"), json.dumps(job)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise JobFailed(f"{job['mode']} job ran past the time limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise JobFailed(f"{job['mode']} job exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _nondeterministic(first_pass: list, replay: list) -> int:
    """Operations of pass 0 that passed their oracle in the run but printed
    something else, or exited otherwise, when replayed."""
    if len(replay) != len(first_pass):
        return len(first_pass)
    return sum(1 for (rc, out, ok), again in zip(first_pass, replay) if ok and [rc, out] != again)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="blockdet benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, one pass (smoke tests)")
    args = parser.parse_args(argv)
    # A terminated benchmark raises SystemExit, so subprocess.run kills and
    # reaps the job it is waiting on instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "blockdet", "cli.py")):
        print(f"no blockdet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    job = {"mode": "run", "workload": args.workload, "seed": args.seed,
           "seconds": 0 if args.tiny else args.seconds, "trace": bool(args.trace), "tiny": args.tiny}
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        job["spans_path"] = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}.tsv")
    replay = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny}
    try:
        run = _job(job, deadline)
        probe = _job({"mode": "probe", "replay": replay}, deadline)
    except JobFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    attempted = run["attempted"]
    failed = run["failed"] + _nondeterministic(run["first_pass"], probe["replay"])
    for problem in run["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"operations={attempted} failed={failed}")

    if args.trace:
        metrics = {name: (run["per_layer"][name], unit) for name, (unit, _) in PER_LAYER.items()}
        note = f"over {run['traced_passes']} traced passes"
    else:
        walls, lat = run["pass_walls_s"], run["latencies_ms"]
        cuts = statistics.quantiles(lat, n=100)
        setups = run["setup_samples_s"] + [[probe["setup_s"], probe["setup_raw_s"]]]
        values = {
            "wall_s": statistics.median(walls),
            "op_ms_p50": cuts[49],
            "op_ms_p90": cuts[89],
            "setup_s": statistics.median(scaled for scaled, _ in setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "success_rate": (attempted - failed) / attempted,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        beyond = sum(1 for x in lat if x > cuts[89])
        note = (f"{len(walls)} passes, {len(lat)} latency samples, {beyond} beyond p90; "
                f"set-up median of {len(setups)} interpreters; error_rate={failed / attempted:.6g}\n"
                f"unscaled medians: wall_s={statistics.median(run['raw_pass_walls_s']):.6g} "
                f"setup_s={statistics.median(raw for _, raw in setups):.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
