"""End-to-end service benchmark for the GradPIM simulator.

Run from the repository root::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 50 --trace 0

Workloads: ``cold-sweep``, ``hot-hits``, ``mixed-writes`` (see
``workloads.py`` and ``NOTES.md``). ``--trace 0`` launches the serving
stack as separate processes, drives it from this process, and reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
(see ``traced.py``). Every returned result is checked byte for byte
against ``digests.json`` (and the default ResNet-18 spec against
``benchmarks/golden_fig9_resnet18.json``).

Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit
status is 0 only when every request succeeded and was byte-correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Units of every reported metric, by name.
UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "ref_latency_p50_ms": "ms",
    "miss_p50_ms": "ms",
    "jobs_per_s": "1/s",
    "ref_jobs_per_s": "1/s",
    "max_rate_rps": "1/s",
    "peak_rss_mb": "MB",
}
#: The ``BENCHMARK.json`` end-to-end metrics: the only ones in the JSON
#: result. The others are printed; on a shared 2-core host they move
#: too much between runs to hold a regression bound (see NOTES.md).
#: The ``ref_*`` times are corrected to a reference host speed
#: (see ``hostspeed.py``); their raw forms are printed beside them.
GATED = ("setup_s", "ref_latency_p50_ms", "ref_jobs_per_s", "peak_rss_mb")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("cold-sweep", "hot-hits", "mixed-writes"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repo = HERE.parent
    if not (repo / "src" / "repro").is_dir():
        print(f"no program sources under {repo / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(repo / "src"))  # the traced run's replay

    import hostspeed
    import traced
    import workloads

    # The generator's threads and the SUT's processes inherit this.
    os.sched_setaffinity(0, {hostspeed.CPU})

    runs_root = repo / ".perfbench_run"
    runs_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=runs_root))
    started = time.perf_counter()
    run = workloads.Run(args.workload, workdir)
    try:
        if args.trace:
            metrics = traced.trace_workload(
                run, args.seed, args.seconds
            )
            units = traced.UNITS
        else:
            metrics = workloads.WORKLOADS[args.workload](
                run, args.seed, args.seconds
            )
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            runs_root.rmdir()
        except OSError:
            pass
    for line in run.lines:
        print(line)
    for name, value in metrics.items():
        print(f"[{args.workload}] {name} = {value:.6g} {units[name]}")
    attempted = len(run.samples)
    failed = run.failed
    print(
        f"[{args.workload}] error_ratio = {failed / max(attempted, 1):.6g} "
        f"({failed} failed, refused or digest-mismatched of {attempted})"
    )
    for error in run.errors():
        print(f"[{args.workload}] FAIL: {error}")
    print(
        f"[{args.workload}] wall {time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if args.trace or name in GATED
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
