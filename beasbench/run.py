"""End-to-end BEAS benchmark: a full ``Beas`` lifecycle per workload.

Each run builds the offline indexes (``setup_s``), then sends one
closed-loop client's operations for ``--seconds`` of measured time, then
checks every answer.  The workloads are described in ``adhoc_airca.py`` and
``serve_tpch.py``; ``README.md`` lists every metric.

    python3 beasbench/run.py --workload adhoc-airca --seed 1 --seconds 10 --trace 0
    python3 beasbench/run.py --workload all --seed 1      # both workloads, one table

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0`` (measured with tracing off), the per-layer metrics with
``--trace 1``.  The full report, with the failures by kind, the exact
counts and the pinned configuration, is written to ``beasbench/out/``,
and a traced run writes its spans there too.

The benchmark measures the default configuration only: it refuses to run
while any ``REPRO_*`` environment knob is set.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("adhoc-airca", "serve-tpch")

#: End-to-end metrics with their units, as BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "answer_p50_ms": "ms",
    "answer_p95_ms": "ms",
    "answer_p99_ms": "ms",
    "answers_per_s": "1/s",
    "exact_p50_ms": "ms",
    "rc_mean": "ratio",
    "eta_sound": "share",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    from measure import repro_knobs

    knobs = repro_knobs()
    if knobs:
        print(f"refusing to run: {', '.join(knobs)} set; the benchmark measures the default configuration",
              file=sys.stderr)
        return 2
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {source / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(source))
    report = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print(report)
    return 0


def _run(workload: str, seed: int, seconds: float, trace: bool):
    if workload == "adhoc-airca":
        import adhoc_airca as module
    else:
        import serve_tpch as module
    start = time.perf_counter()
    report = module.run(seed, seconds, trace)
    report.notes["run_s"] = time.perf_counter() - start
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(exist_ok=True)
    tracer = report.notes.pop("tracer", None)
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    blocks = report.notes.pop("blocks")
    report.notes["parallel"] = blocks.parallel
    del report.notes["answers"]
    (OUT / f"{stem}.json").write_text(json.dumps(report.as_dict(), indent=2, default=str) + "\n")
    return report


def _print(report) -> None:
    from layers import LAYER_UNITS

    ledger = report.ledger
    config = " ".join(f"{k}={v}" for k, v in report.config.items())
    print(f"workload {report.workload}  seed {report.seed}  trace {int(report.trace)}  [{config}]")
    units = LAYER_UNITS if report.trace else END_TO_END_UNITS
    values = report.layers if report.trace else report.metrics
    for name, unit in units.items():
        print(f"  {name:<30} {values[name]:>14.6g} {unit}")
    samples = ", ".join(f"{k} {v}" for k, v in report.samples.items())
    print(f"  samples: {samples}")
    kinds = ", ".join(f"{k} {v}" for k, v in ledger.counts().items())
    print(f"  failed operations by kind (of {ledger.attempted} attempted): {kinds}")
    for kind, details in ledger.failures.items():
        for detail in details[:5]:
            print(f"    {kind}: {detail}")
    counts = ", ".join(f"{k} {v}" for k, v in report.counts.items())
    print(f"  exact counts (block 0): {counts}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))


def _run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process), one combined line."""
    combined = {}
    for workload in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"{workload} failed with exit code {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        combined[workload] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
