"""Shared pieces of the BEAS benchmark: failure ledger, timing summaries,
the pinned configuration record and the per-run report.

Nothing here imports ``repro`` at module level, so ``run.py`` can refuse a
misconfigured environment before the program is imported.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Failure kinds, in report order.  The first four are operations that
#: returned no answer or a wrong one; ``eta_unsound`` is an answer whose
#: promised accuracy bound η exceeds its realised RC accuracy.
FAILURE_KINDS = (
    "raised",
    "over_budget",
    "exact_mismatch",
    "served_mismatch",
    "eta_unsound",
)

#: Kinds that make ``correct`` false: the program returned wrong rows or
#: read more than ⌊α·|D|⌋ tuples, which BEAS guarantees never to do.
WRONG_ANSWER_KINDS = ("over_budget", "exact_mismatch", "served_mismatch")


def repro_knobs(environ=os.environ) -> List[str]:
    """Names of the ``REPRO_*`` environment knobs that are set."""
    return sorted(name for name in environ if name.startswith("REPRO_"))


def executor_config() -> Dict[str, object]:
    """The configuration a run measured: backend, executor, workers, CPUs, Python."""
    from repro.relational import get_default_backend, get_shard_executor, get_shard_workers

    return {
        "backend": get_default_backend(),
        "executor": get_shard_executor(),
        "workers": get_shard_workers(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile, as the serving layer's own stats report it."""
    from repro.serving import percentile

    value = percentile(samples, q)
    if value is None:
        raise ValueError("no samples to summarise")
    return value


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


class Ledger:
    """Operations attempted and failed, by kind, with one line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, List[str]] = {kind: [] for kind in FAILURE_KINDS}

    def fail(self, kind: str, detail: str) -> None:
        self.failures[kind].append(detail)

    def counts(self) -> Dict[str, int]:
        return {kind: len(details) for kind, details in self.failures.items()}

    @property
    def failed(self) -> int:
        """Operations that returned no answer or a wrong one (η kept apart)."""
        return sum(len(self.failures[kind]) for kind in FAILURE_KINDS if kind != "eta_unsound")

    @property
    def correct(self) -> bool:
        return not any(self.failures[kind] for kind in WRONG_ANSWER_KINDS)


@dataclass
class Report:
    """Everything one run measured.

    ``metrics`` holds the end-to-end metrics (measured with tracing off),
    ``layers`` the per-layer metrics of a traced run, ``counts`` the exact
    counts of the count window (they repeat exactly for a fixed seed) and
    ``ops`` the operation sequence that window ran.
    """

    workload: str
    seed: int
    trace: bool
    config: Dict[str, object]
    ledger: Ledger
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    ops: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "executor_config": self.config,
            "correct": self.ledger.correct,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "failures_by_kind": self.ledger.counts(),
            "failure_details": self.ledger.failures,
            "metrics": self.metrics,
            "layers": self.layers,
            "counts": self.counts,
            "samples": self.samples,
            "notes": self.notes,
        }


def answer_metrics(answers: "Timings") -> Dict[str, float]:
    """``answer_p50/p95/p99_ms`` and ``answers_per_s`` (per second of answering)."""
    seconds = answers.values()
    return {
        "answer_p50_ms": median(seconds) * 1e3,
        "answer_p95_ms": quantile(seconds, 0.95) * 1e3,
        "answer_p99_ms": quantile(seconds, 0.99) * 1e3,
        "answers_per_s": len(seconds) / sum(seconds),
    }


#: Relative tolerance for floating-point values computed in another order
#: (an exact plan's weighted aggregates against ``Q(D)``, RC against η):
#: far above double-precision rounding, far below any real error.
FLOAT_TOLERANCE = 1e-9


def _values_match(mine: object, theirs: object) -> bool:
    if isinstance(mine, float) or isinstance(theirs, float):
        if mine != mine and theirs != theirs:  # both NaN
            return True
        if isinstance(mine, (int, float)) and isinstance(theirs, (int, float)):
            return math.isclose(mine, theirs, rel_tol=FLOAT_TOLERANCE, abs_tol=FLOAT_TOLERANCE)
    return mine == theirs


def rows_match(mine, theirs) -> bool:
    """Whether two relations hold the same rows, floats equal up to rounding."""
    from repro.relational.relation import row_sort_key

    if len(mine) != len(theirs):
        return False

    def key(row):
        return row_sort_key(tuple(float(f"{v:.9g}") if isinstance(v, float) else v for v in row))

    return all(
        len(a) == len(b) and all(_values_match(x, y) for x, y in zip(a, b))
        for a, b in zip(sorted(mine, key=key), sorted(theirs, key=key))
    )


def eta_unsound(eta: float, rc: float) -> bool:
    """Whether the promised bound η exceeds the realised RC accuracy."""
    return eta > rc + FLOAT_TOLERANCE


def check_answer(
    ledger: Ledger,
    label: str,
    result,
    exact_rows: Optional[object] = None,
) -> None:
    """α-boundedness and, for exact plans, equality with ``Q(D)``."""
    if result.tuples_accessed > result.budget:
        ledger.fail(
            "over_budget", f"{label}: accessed {result.tuples_accessed} > budget {result.budget}"
        )
    if exact_rows is not None and result.exact and not rows_match(result.rows, exact_rows):
        ledger.fail(
            "exact_mismatch",
            f"{label}: exact plan returned {len(result.rows)} rows, Q(D) has {len(exact_rows)}",
        )


def timed_setup(build: Callable[[], object], repeats: int, report: Report, tracer=None):
    """Run ``build`` ``repeats`` times and report the median scaled time as ``setup_s``.

    A traced run builds once, with the build layers wrapped, and reports no
    ``setup_s``: spans slow the build down.
    """
    from spans import wrap_build_layers

    if tracer is not None:
        wrap_build_layers(tracer)
        tracer.enabled = True
        span = tracer.begin("build")
        built = build()
        tracer.end(span)
        tracer.enabled = False
        return built
    clock = Clock()
    times = []
    built = None
    for _ in range(repeats):
        built = None  # the previous build is freed before the next one starts
        gc.collect()
        built, seconds = clock.time(build)
        times.append(seconds)
    report.metrics["setup_s"] = median(times)
    report.samples["setup_s"] = len(times)
    report.notes["setup_runs_s"] = times
    return built


#: Seconds the reference loop is taken to last; timings are scaled to it.
REFERENCE_S = 1e-3


def _reference_loop() -> None:
    table: Dict[int, int] = {}
    for i in range(12000):
        key = i & 255
        table[key] = table.get(key, 0) + i


class Clock:
    """Wall time scaled to a fixed machine speed.

    The host this benchmark was sized on slows a process by up to 2x, for
    seconds or minutes at a time, through neighbours it cannot see: CPU
    time slows as much as wall time.  A fixed pure-Python reference loop
    (about 1 ms) is timed at least every ``interval`` seconds between
    operations, and an operation's time is scaled by :data:`REFERENCE_S`
    over the loop's recent time (the median of its last three samples).
    On a 2-vCPU KVM guest (Xeon, 2.1 GHz), scaling an exact-query loop
    interleaved with the reference cut the spread of its 10-second means
    from 8.4% to 3.8%.  The loop does not touch the program, so a change
    to the program cannot move the scale.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self._last = float("-inf")
        self.factor = 1.0

    def tick(self, force: bool = False) -> None:
        """Time the reference loop if ``interval`` has passed (or ``force``)."""
        now = perf_counter()
        if not force and now - self._last < self.interval:
            return
        _reference_loop()
        self._last = perf_counter()
        self.samples.append(self._last - now)
        self.factor = REFERENCE_S / statistics.median(self.samples[-3:])

    def time(self, call: Callable[[], object]) -> Tuple[object, float]:
        """``call()`` and its scaled duration; the loop runs before and after it."""
        self.tick(force=True)
        start = perf_counter()
        result = call()
        elapsed = perf_counter() - start
        self.tick(force=True)
        return result, elapsed * self.factor


class Timings:
    """Scaled latencies of one operation kind, each tagged with its block."""

    def __init__(self) -> None:
        self.samples: List[Tuple[int, float]] = []

    def add(self, block: int, seconds: float) -> None:
        self.samples.append((block, seconds))

    def values(self, blocks: Callable[[int], bool] = lambda block: True) -> List[float]:
        return [seconds for block, seconds in self.samples if blocks(block)]

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class Blocks:
    """How many blocks ran, and the process-path work they caused."""

    count: int
    #: 0 on the default executor: BEAS answers do not reach the process path.
    parallel: Dict[str, int]


def parallel_counters() -> Dict[str, int]:
    """Cumulative process-dispatch counters of ``repro.relational.parallel``."""
    from repro.relational import parallel

    affinity = parallel.affinity_stats()
    return {
        "dispatches": affinity["hits"] + affinity["steals"],
        "select_gather_calls": parallel.select_gather_stats()["calls"],
        "retries": parallel.dispatch_stats()["retries"],
    }


def run_blocks(
    block_ops: Callable[[int], Iterable[object]],
    send: Callable[[object], object],
    observe: Callable[[int, int, object, object, float], None],
    seconds: float,
    ledger: Ledger,
    tracer=None,
    stop_every: int = 1,
) -> Blocks:
    """Send operations, one at a time, until ``seconds`` of them have been measured.

    ``block_ops(block)`` gives a block's operations; ``send(op)`` performs
    one, timed; ``observe(block, index, op, outcome, seconds)`` runs untimed
    after it, where ``outcome`` is the result or the exception raised and
    ``seconds`` the time scaled by a :class:`Clock`.
    Block 0, the count window, always runs whole.  A traced run traces
    block 0 only and runs block 1 whole too, so that untraced operations
    of the same kinds measure the tracing overhead.  Later blocks stop at
    an operation index that is a multiple of ``stop_every``, so the run
    ends on a whole unit of the workload's mix.
    """
    whole_blocks = 1 if tracer is None else 2
    clock = Clock()
    parallel_before = parallel_counters()
    measured = 0.0
    block = 0
    while block < whole_blocks or measured < seconds:
        traced = tracer is not None and block == 0
        gc.collect()
        for index, op in enumerate(block_ops(block)):
            if block >= whole_blocks and measured >= seconds and index % stop_every == 0:
                break
            ledger.attempted += 1
            clock.tick()
            factor = clock.factor
            if traced:
                tracer.enabled = True
                tracer.block = block
                tracer.request += 1
                span = tracer.begin("request")
            start = perf_counter()
            try:
                outcome = send(op)
            except Exception as exc:  # an operation that raises is a counted failure
                outcome = exc
                ledger.fail("raised", f"block {block} {op.label}: {type(exc).__name__}: {exc}")
            elapsed = perf_counter() - start
            if traced:
                tracer.end(span)
                tracer.enabled = False
            measured += elapsed
            clock.tick()  # samples again after an operation longer than the interval
            observe(block, index, op, outcome, elapsed * (factor + clock.factor) / 2)
        block += 1
    parallel = {name: value - parallel_before[name] for name, value in parallel_counters().items()}
    return Blocks(block, parallel)
