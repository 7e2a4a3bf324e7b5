"""Process-parallel shard execution: knobs, codec, workers, and equivalence.

Three layers of coverage for :mod:`repro.relational.parallel`:

* **Unit** — knob validation (including the import-time environment
  overrides), the shard payload codec, and the worker functions called
  in-process through inline handles (exactly the code worker processes run,
  minus the process boundary).
* **End-to-end** — real pool round trips: masks, gathers, kernel batches and
  KD radius queries under ``executor="process"`` must be bit-identical to
  the serial path, including after a shard mutation retires the published
  segments.
* **Property** — a hypothesis invariant that serial and process mask
  evaluation agree on None/NaN/mixed/string columns.

The cross-backend conformance matrix in ``conftest.py`` additionally runs
every ``backend``-fixture test under the process executor, so whole-query
(``Beas.answer``) equivalence is enforced suite-wide, not just here.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const
from repro.relational import parallel
from repro.relational.distance import NUMERIC, TRIVIAL
from repro.relational.kdtree import KDForest
from repro.relational.kernels import (
    NearestNeighbors,
    RadiusMatcher,
    ShardedNearestNeighbors,
    ShardedRadiusMatcher,
    naive_min_distance,
    naive_radius_matches,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.store import (
    ColumnStore,
    EXECUTOR_MODES,
    RowStore,
    ShardedStore,
    _env_executor_mode,
    _env_worker_count,
    get_shard_executor,
    get_shard_workers,
    set_shard_executor,
    set_shard_workers,
)

from conftest import SHARD_EXECUTORS, identity_key

PROCESS_OK = "process" in SHARD_EXECUTORS
needs_process = pytest.mark.skipif(
    not PROCESS_OK, reason="process pool unavailable on this platform"
)

SCHEMA = RelationSchema(
    "t", [Attribute("id", TRIVIAL), Attribute("x", NUMERIC), Attribute("y", NUMERIC)]
)
CONDITION = Conjunction.of(
    [
        Comparison(AttrRef(None, "x"), CompareOp.LE, Const(60.0)),
        Comparison(AttrRef(None, "y"), CompareOp.GT, Const(25.0)),
    ]
)


def _raising_masker(part):
    """A picklable masker that fails: its error must reach the caller."""
    raise RuntimeError("application bug in masker")


def make_rows(count: int, seed: int = 11):
    rng = random.Random(seed)
    return [
        (rng.randrange(max(1, count // 50)), rng.uniform(0, 100), rng.uniform(0, 100))
        for _ in range(count)
    ]


@pytest.fixture
def executor_guard():
    """Snapshot and restore the executor-related process-wide knobs."""
    previous_mode = get_shard_executor()
    previous_min = parallel.get_process_min_rows()
    yield
    set_shard_executor(previous_mode)
    parallel.set_process_min_rows(
        None if previous_min == parallel.DEFAULT_PROCESS_MIN_ROWS else previous_min
    )


def force_process():
    set_shard_executor("process")
    parallel.set_process_min_rows(1)


# ---------------------------------------------------------------------------
# Knob validation and environment overrides
# ---------------------------------------------------------------------------

class TestKnobs:
    def test_set_shard_workers_rejects_non_positive(self):
        for bad in (0, -1, -100):
            with pytest.raises(ValueError):
                set_shard_workers(bad)

    def test_set_shard_workers_roundtrip(self):
        previous = set_shard_workers(3)
        try:
            assert get_shard_workers() == 3
            assert set_shard_workers(3) == 3  # same value: warm pools survive
        finally:
            set_shard_workers(previous)

    def test_set_shard_executor_validates(self, executor_guard):
        with pytest.raises(ValueError):
            set_shard_executor("threads")  # typo must not silently misbehave
        with pytest.raises(ValueError):
            set_shard_executor("thread")  # the thread executor is gone
        with pytest.raises(ValueError):
            set_shard_executor("")
        previous = set_shard_executor("process")
        assert get_shard_executor() == "process"
        assert set_shard_executor(None) == "process"  # None restores the default
        assert get_shard_executor() == "serial"
        set_shard_executor(previous)

    def test_executor_modes_tuple(self):
        assert EXECUTOR_MODES == ("serial", "process")

    def test_set_process_min_rows_validates(self, executor_guard):
        with pytest.raises(ValueError):
            parallel.set_process_min_rows(0)
        with pytest.raises(ValueError):
            parallel.set_process_min_rows(-5)
        previous = parallel.set_process_min_rows(7)
        assert parallel.get_process_min_rows() == 7
        parallel.set_process_min_rows(None)
        assert parallel.get_process_min_rows() == parallel.DEFAULT_PROCESS_MIN_ROWS
        parallel.set_process_min_rows(previous)

    def test_env_worker_count_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_WORKERS", raising=False)
        assert _env_worker_count("REPRO_SHARD_WORKERS") is None
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "  ")
        assert _env_worker_count("REPRO_SHARD_WORKERS") is None
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "8")
        assert _env_worker_count("REPRO_SHARD_WORKERS") == 8
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "0")
        with pytest.raises(ValueError):
            _env_worker_count("REPRO_SHARD_WORKERS")
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "four")
        with pytest.raises(ValueError):
            _env_worker_count("REPRO_SHARD_WORKERS")

    def test_env_executor_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_EXECUTOR", raising=False)
        assert _env_executor_mode("REPRO_SHARD_EXECUTOR") == "serial"
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "Process")
        assert _env_executor_mode("REPRO_SHARD_EXECUTOR") == "process"
        for retired in ("gpu", "thread"):
            monkeypatch.setenv("REPRO_SHARD_EXECUTOR", retired)
            with pytest.raises(ValueError):
                _env_executor_mode("REPRO_SHARD_EXECUTOR")


# ---------------------------------------------------------------------------
# Shard payload codec
# ---------------------------------------------------------------------------

MIXED_COLUMNS = [
    [1.5, 2.5, float("nan"), -0.0],                # float buffer (with NaN)
    [1, -(2**62), 0, 7],                           # int buffer
    [None, "s", 3, 2.0],                           # object column
    ["a", "b", "c", "d"],                          # strings
]


class TestCodec:
    def assert_identical_stores(self, left, right):
        assert len(left) == len(right)
        assert left.width == right.width
        assert [identity_key(r) for r in left.iter_rows()] == [
            identity_key(r) for r in right.iter_rows()
        ]

    def test_column_store_roundtrip(self):
        store = ColumnStore.from_columns(len(MIXED_COLUMNS), MIXED_COLUMNS)
        decoded = parallel.decode_store(parallel.encode_store(store))
        assert isinstance(decoded, ColumnStore)
        self.assert_identical_stores(store, decoded)
        # Typed buffers stay typed through the codec.
        assert decoded._kinds[:2] == store._kinds[:2]

    def test_empty_and_zero_width_stores(self):
        empty = ColumnStore.from_columns(3, [[], [], []])
        decoded = parallel.decode_store(parallel.encode_store(empty))
        self.assert_identical_stores(empty, decoded)

        zero_width = ColumnStore(0)
        decoded = parallel.decode_store(parallel.encode_store(zero_width))
        assert decoded.width == 0 and len(decoded) == 0

    def test_row_store_falls_back_to_pickle(self):
        store = RowStore.from_rows(2, [(1, "a"), (2.0, None)])
        decoded = parallel.decode_store(parallel.encode_store(store))
        assert isinstance(decoded, RowStore)
        self.assert_identical_stores(store, decoded)

    def test_sharded_store_pickles_without_publication(self, executor_guard):
        rows = make_rows(64)
        store = ShardedStore.from_rows(3, rows)
        if PROCESS_OK:
            force_process()
            CONDITION.mask(store, SCHEMA)  # force a publication
        clone = pickle.loads(pickle.dumps(store))
        assert clone._publication is None
        self.assert_identical_stores(store, clone)

    def test_buffer_roundtrip(self):
        from array import array

        typed = array("d", [1.0, 2.0])
        assert parallel._decode_buffer(parallel._encode_buffer(typed)) == typed
        objects = [None, "x", 3]
        assert parallel._decode_buffer(parallel._encode_buffer(objects)) == objects


# ---------------------------------------------------------------------------
# Worker functions, driven in-process through inline handles
# ---------------------------------------------------------------------------

def inline_handle(store, token):
    return ("inline", token, parallel.encode_store(store))


class TestWorkerFunctions:
    def test_eval_mask_matches_direct_evaluation(self):
        store = ColumnStore.from_rows(3, make_rows(200))
        program = CONDITION.program(SCHEMA)
        masker = pickle.dumps(program.run_part)
        out = parallel._worker_eval_mask(inline_handle(store, "t-mask"), masker)
        assert bytearray(out) == program.run_part(store)

    def test_gather_roundtrip(self):
        store = ColumnStore.from_rows(3, make_rows(50))
        encoded = parallel._worker_gather(inline_handle(store, "t-gather"), 1, [4, 4, 0, 49])
        assert list(parallel._decode_buffer(encoded)) == list(
            store.gather_column(1, [4, 4, 0, 49])
        )

    def test_radius_and_nn_and_kd_workers(self):
        rows = make_rows(120)
        store = ColumnStore.from_rows(3, rows)
        handle = inline_handle(store, "t-kernels")
        spec = pickle.dumps(([0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0]))
        queries = [rows[i][:2] for i in range(0, 120, 17)]
        batch = pickle.dumps(queries)

        per_query = parallel._worker_radius_matches(handle, spec, batch, True)
        flags = parallel._worker_radius_matches(handle, spec, batch, False)
        for values, matches, flag in zip(queries, per_query, flags):
            expected = naive_radius_matches(values, rows, [0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0])
            assert matches == expected
            assert flag == bool(expected)

        nn_spec = pickle.dumps(list(SCHEMA.attributes))
        nn_batch = pickle.dumps([rows[3], rows[77]])
        distances = [a.distance for a in SCHEMA.attributes]
        assert parallel._worker_nn_min(handle, nn_spec, nn_batch) == [
            naive_min_distance(rows[3], rows, distances),
            naive_min_distance(rows[77], rows, distances),
        ]

        kd_spec = pickle.dumps((SCHEMA, 4))
        kd_batch = pickle.dumps([((rows[5][0], rows[5][1], rows[5][2]), [0.0, 3.0, 5.0])])
        [indices] = parallel._worker_kd_radius(handle, kd_spec, kd_batch)
        expected = naive_radius_matches(rows[5], rows, [0, 1, 2], distances, [0.0, 3.0, 5.0])
        assert sorted(indices) == expected

    def test_store_cache_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(parallel, "_STORE_CACHE_LIMIT", 2)
        parallel._STORE_CACHE.clear()
        parallel._INDEX_CACHE.clear()
        stores = [ColumnStore.from_rows(3, make_rows(8, seed=s)) for s in range(3)]
        handles = [inline_handle(store, f"lru-{i}") for i, store in enumerate(stores)]
        masker = pickle.dumps(CONDITION.program(SCHEMA).run_part)

        parallel._worker_eval_mask(handles[0], masker)
        spec = pickle.dumps(([0], [TRIVIAL], [0.0]))
        parallel._worker_radius_matches(handles[0], spec, pickle.dumps([(0,)]), True)
        assert ("lru-0", "radius", spec) in parallel._INDEX_CACHE

        parallel._worker_eval_mask(handles[1], masker)
        parallel._worker_eval_mask(handles[2], masker)
        assert "lru-0" not in parallel._STORE_CACHE  # oldest evicted
        assert ("lru-0", "radius", spec) not in parallel._INDEX_CACHE  # deps dropped
        # Cached entries are reused (move_to_end path) and re-resolvable.
        parallel._worker_eval_mask(handles[2], masker)
        parallel._worker_eval_mask(handles[0], masker)
        parallel._STORE_CACHE.clear()
        parallel._INDEX_CACHE.clear()


class TestWorkerInternals:
    """Worker-process plumbing, driven in-process (coverage cannot see the
    real workers, so the exact code they run is exercised here directly)."""

    def test_worker_init_neutralizes_inherited_state(self):
        from repro.relational import store as store_module

        saved = (
            parallel._IN_PROCESS_WORKER,
            parallel._WORKER_START_METHOD,
            store_module._shard_workers,
            store_module._shard_executor,
        )
        try:
            parallel._worker_init("spawn")
            assert parallel._IN_PROCESS_WORKER is True
            assert parallel._WORKER_START_METHOD == "spawn"
            assert store_module._shard_workers == 1
            assert store_module._shard_executor == "serial"
            assert parallel._worker_ping() is True
            # A worker never spawns nested pools or publications.
            relation = Relation(SCHEMA, make_rows(50), backend="sharded")
            assert not parallel.process_eligible(relation.store)
        finally:
            (
                parallel._IN_PROCESS_WORKER,
                parallel._WORKER_START_METHOD,
                store_module._shard_workers,
                store_module._shard_executor,
            ) = saved

    @needs_process
    def test_read_segment_roundtrip_and_untracking(self):
        payload = b"shard-payload-bytes"
        handle = parallel._publish_payload(payload)
        assert handle[0] == "shm"
        try:
            assert parallel._read_segment(handle[1], handle[2]) == payload
        finally:
            parallel._release_segments([handle[1]])

    def test_untrack_segment_modes(self):
        class FakeShm:
            _name = "/psm_does_not_exist"

        saved = parallel._WORKER_START_METHOD
        try:
            parallel._WORKER_START_METHOD = "fork"
            parallel._untrack_segment(FakeShm())  # shared tracker: left alone
            parallel._WORKER_START_METHOD = "spawn"
            parallel._untrack_segment(FakeShm())  # unknown name: swallowed
        finally:
            parallel._WORKER_START_METHOD = saved

    def test_decode_empty_typed_column(self):
        payload = pickle.dumps(("columns", 1, 0, [("arr", "d", b"")]))
        store = parallel.decode_store(payload)
        assert store.width == 1 and len(store) == 0

    def test_publish_falls_back_inline_when_shm_unavailable(
        self, executor_guard, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_shared_memory_broken", True)
        handle = parallel._publish_payload(b"abc")
        assert handle[0] == "inline" and handle[2] == b"abc"
        if PROCESS_OK:
            # End to end: inline handles still reach the workers correctly.
            relation = Relation(SCHEMA, make_rows(2500), backend="sharded")
            force_process()
            process_mask = bytes(CONDITION.mask(relation.store, SCHEMA))
            assert all(h[0] == "inline" for h in relation.store._publication.handles)
            set_shard_executor("serial")
            assert process_mask == bytes(CONDITION.mask(relation.store, SCHEMA))

    def test_publish_detects_broken_shared_memory(self, monkeypatch):
        import multiprocessing.shared_memory as shm_module

        def broken(*args, **kwargs):
            raise OSError("no /dev/shm")

        monkeypatch.setattr(shm_module, "SharedMemory", broken)
        monkeypatch.setattr(parallel, "_shared_memory_broken", False)
        handle = parallel._publish_payload(b"xyz")
        assert handle[0] == "inline"
        assert parallel._shared_memory_broken is True

    def test_unpicklable_specs_return_none(self, executor_guard):
        from repro.relational.distance import DistanceFunction

        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        bad_distance = DistanceFunction("bad", lambda x, y: 0.0)
        assert (
            parallel.radius_matches_many(
                relation.store, [0], [bad_distance], [0.0], [(1,)]
            )
            is None
        )
        bad_attr = Attribute("a", bad_distance)
        assert parallel.nn_min_distance_many(relation.store, [bad_attr], [(1,)]) is None
        bad_schema = RelationSchema("b", [bad_attr])
        assert (
            parallel.kd_within_radius_many(relation.store, bad_schema, 1, [((1,), [0.0])])
            is None
        )
        # Unpicklable query values fall back the same way.
        assert (
            parallel.radius_matches_many(
                relation.store, [0], [TRIVIAL], [0.0], [(lambda: None,)]
            )
            is None
        )
        assert (
            parallel.nn_min_distance_many(
                relation.store, list(SCHEMA.attributes), [(lambda: None,)]
            )
            is None
        )
        assert (
            parallel.kd_within_radius_many(
                relation.store, SCHEMA, 1, [((lambda: None,), [0.0])]
            )
            is None
        )

    def test_unpublishable_payload_falls_back_without_leaking(self, executor_guard):
        import threading

        rows = make_rows(3000)
        rows[-1] = (threading.Lock(), 1.0, 2.0)  # unpicklable object-column value
        cls = ShardedStore.configured(4, "range")  # bad value isolated in last shard
        store = cls.from_rows(3, rows)
        force_process()
        registry_before = set(parallel._SEGMENT_REGISTRY)

        assert parallel.publication_for(store) is None
        assert store._publication is parallel._UNPUBLISHABLE
        # The good shards published before the failure must not leak, and
        # repeated queries must not re-attempt (and re-leak) the encode.
        assert set(parallel._SEGMENT_REGISTRY) == registry_before
        condition = Conjunction.of(
            [Comparison(AttrRef(None, "x"), CompareOp.LE, Const(60.0))]
        )
        process_mask = bytes(condition.mask(store, SCHEMA))
        assert set(parallel._SEGMENT_REGISTRY) == registry_before
        set_shard_executor("serial")
        assert process_mask == bytes(condition.mask(store, SCHEMA))

        # Mutation clears the sentinel like any publication: a store that
        # sheds its unpicklable values becomes publishable again.
        store.append((1, 1.0, 2.0))
        assert store._publication is None

    def test_ensure_router_is_race_free(self):
        import threading

        parallel.reset_process_pool()
        routers = []
        barrier = threading.Barrier(2)

        def create():
            barrier.wait()
            routers.append(parallel._ensure_router())

        threads = [threading.Thread(target=create) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert routers[0] is not None
        assert routers[0] is routers[1]  # one router, nothing leaked

    @needs_process
    def test_broken_pool_submission_falls_back(self, executor_guard, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        class FakePool:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("boom")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        parallel.reset_process_pool()
        failures_before = parallel._pool_failures
        monkeypatch.setattr(
            parallel._AffinityRouter, "_create_pool", staticmethod(FakePool)
        )
        program = CONDITION.program(SCHEMA)
        assert parallel.process_eval_mask(relation.store, program.run_part) is None
        assert parallel._pool_failures == failures_before + 1
        assert parallel.probe_process_executor() is False
        monkeypatch.undo()
        parallel.reset_process_pool()
        parallel._pool_failures = failures_before
        # The serial fallback keeps the query correct throughout.
        set_shard_executor("serial")
        reference = bytes(CONDITION.mask(relation.store, SCHEMA))
        set_shard_executor("process")
        assert bytes(CONDITION.mask(relation.store, SCHEMA)) == reference

    @needs_process
    def test_cancelled_futures_fall_back_without_breaker_strike(
        self, executor_guard, monkeypatch
    ):
        from concurrent.futures import CancelledError

        class CancelledFuture:
            def result(self, timeout=None):
                raise CancelledError()

            def cancel(self):
                return True

            def add_done_callback(self, fn):
                pass

        class CancellingPool:
            def submit(self, *args, **kwargs):
                return CancelledFuture()

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        set_shard_executor("serial")
        reference = bytes(CONDITION.mask(relation.store, SCHEMA))
        set_shard_executor("process")
        failures_before = parallel._pool_failures
        parallel.reset_process_pool()
        monkeypatch.setattr(
            parallel._AffinityRouter, "_create_pool", staticmethod(CancellingPool)
        )
        # A concurrent reset cancelling the futures degrades to the serial
        # path (correct answer) without counting against the breaker.
        try:
            assert bytes(CONDITION.mask(relation.store, SCHEMA)) == reference
            assert parallel._pool_failures == failures_before
        finally:
            monkeypatch.undo()
            parallel.reset_process_pool()

    @needs_process
    def test_success_resets_failure_breaker(self, executor_guard):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        parallel._pool_failures = parallel._MAX_POOL_FAILURES - 1
        program = CONDITION.program(SCHEMA)
        assert parallel.process_eval_mask(relation.store, program.run_part) is not None
        # One good round clears the strikes: only *consecutive* failures
        # can disable process mode.
        assert parallel._pool_failures == 0

    @needs_process
    def test_reset_pool_with_live_pool(self):
        assert parallel.probe_process_executor() is True  # ensures a live pool
        parallel.reset_process_pool()
        assert parallel._router is None
        assert parallel.probe_process_executor() is True  # respawns cleanly


# ---------------------------------------------------------------------------
# End-to-end: real pool round trips
# ---------------------------------------------------------------------------

@needs_process
class TestProcessExecution:
    def test_masks_bit_identical_across_executors(self, executor_guard):
        relation = Relation(SCHEMA, make_rows(5000), backend="sharded")
        masks = {}
        for mode in EXECUTOR_MODES:
            set_shard_executor(mode)
            parallel.set_process_min_rows(1)
            masks[mode] = bytes(CONDITION.mask(relation.store, SCHEMA))
        assert masks["serial"] == masks["process"]

    def test_gather_identical_across_executors(self, executor_guard):
        relation = Relation(SCHEMA, make_rows(600), backend="sharded")
        indices = [5, 5, 599, 0, 123, 123, 7]  # duplicates, out of order
        set_shard_executor("serial")
        expected = [list(relation.store.gather_column(p, indices)) for p in range(3)]
        force_process()
        gathered = [list(relation.store.gather_column(p, indices)) for p in range(3)]
        assert gathered == expected

    def test_kernel_batches_identical(self, executor_guard):
        rows = make_rows(800)
        relation = Relation(SCHEMA, rows, backend="sharded")
        queries = [rows[i][:2] for i in range(0, 800, 31)]
        full = [rows[i] for i in range(0, 800, 57)]

        set_shard_executor("serial")
        matcher = RadiusMatcher.from_store(relation.store, [0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0])
        assert isinstance(matcher, ShardedRadiusMatcher)
        expected_matches = matcher.matches_many(queries)
        expected_any = matcher.any_match_many(queries)
        neighbors = NearestNeighbors.from_store(relation.store, SCHEMA.attributes)
        assert isinstance(neighbors, ShardedNearestNeighbors)
        expected_min = neighbors.min_distance_many(full)

        force_process()
        matcher = RadiusMatcher.from_store(relation.store, [0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0])
        assert matcher.matches_many(queries) == expected_matches
        assert matcher.any_match_many(queries) == expected_any
        assert matcher.matches(queries[0]) == expected_matches[0]  # per-query stays local
        neighbors = NearestNeighbors.from_store(relation.store, SCHEMA.attributes)
        assert neighbors.min_distance_many(full) == expected_min

    def test_subclassed_kernels_stay_on_local_path(self, executor_guard):
        """A RadiusMatcher/NearestNeighbors subclass keeps its overridden
        behavior in batch calls: workers build base-class kernels, so
        subclasses must not ship to the pool."""

        class MutedMatcher(RadiusMatcher):
            def matches(self, values):
                return []  # deliberately different from the base behavior

        rows = make_rows(600)
        relation = Relation(SCHEMA, rows, backend="sharded")
        force_process()
        base = ShardedRadiusMatcher(relation.store, [0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0])
        assert base.matches_many([rows[0][:2]]) != [[]]  # the row matches itself
        muted = ShardedRadiusMatcher(
            relation.store, [0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0],
            matcher_cls=MutedMatcher,
        )
        # The override survived under executor="process" (no pool shipping).
        assert muted.matches_many([rows[0][:2]]) == [[]]

        class TaggedNeighbors(NearestNeighbors):
            def min_distance(self, values):
                return -1.0

        neighbors = ShardedNearestNeighbors(
            relation.store, SCHEMA.attributes, index_cls=TaggedNeighbors
        )
        assert neighbors.min_distance_many([rows[0]]) == [-1.0]

    def test_kd_forest_batch_identical(self, executor_guard):
        rows = make_rows(400)
        relation = Relation(SCHEMA, rows, backend="sharded")
        queries = [(rows[i], [0.0, 4.0, 6.0]) for i in range(0, 400, 41)]
        set_shard_executor("serial")
        expected = [
            sorted(hits)
            for hits in KDForest(relation, max_leaf_size=4).within_radius_indices_many(queries)
        ]
        force_process()
        forest = KDForest(relation, max_leaf_size=4)
        assert [sorted(hits) for hits in forest.within_radius_indices_many(queries)] == expected
        assert sorted(forest.within_radius_indices(*queries[0])) == expected[0]

    def test_mutation_retires_publication(self, executor_guard):
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        force_process()
        CONDITION.mask(relation.store, SCHEMA)
        publication = relation.store._publication
        assert publication is not None
        before = {h[1] for h in publication.handles if h[0] == "shm"}
        assert before <= set(parallel._SEGMENT_REGISTRY)

        relation.append((999, 10.0, 90.0))  # mutation retires the segments
        assert relation.store._publication is None
        assert not (before & set(parallel._SEGMENT_REGISTRY))

        process_mask = bytes(CONDITION.mask(relation.store, SCHEMA))
        set_shard_executor("serial")
        assert process_mask == bytes(CONDITION.mask(relation.store, SCHEMA))
        # The fresh publication uses fresh segment names: stale worker cache
        # entries can never answer for the mutated store.
        fresh = {h[1] for h in relation.store._publication.handles if h[0] == "shm"}
        assert not (fresh & before)

    def test_unpicklable_masker_falls_back(self, executor_guard):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        seen = bytearray(relation.store.eval_mask(lambda part: bytearray(b"\x01" * len(part))))
        assert seen == bytearray(b"\x01" * len(relation))

    def test_small_store_skips_process(self, executor_guard):
        relation = Relation(SCHEMA, make_rows(40), backend="sharded")
        set_shard_executor("process")  # default threshold: 40 rows stay local
        mask = CONDITION.mask(relation.store, SCHEMA)
        assert relation.store._publication is None
        set_shard_executor("serial")
        assert mask == CONDITION.mask(relation.store, SCHEMA)

    def test_unpicklable_distance_falls_back_locally(self, executor_guard):
        from repro.relational.distance import DistanceFunction

        rows = make_rows(900)
        relation = Relation(SCHEMA, rows, backend="sharded")
        custom = DistanceFunction("local", lambda x, y: abs(float(x) - float(y)), numeric=True)
        force_process()
        matcher = RadiusMatcher.from_store(relation.store, [1], [custom], [2.0])
        queries = [rows[i][1:2] for i in range(0, 900, 97)]
        for values, hits in zip(queries, matcher.matches_many(queries)):
            assert hits == naive_radius_matches(values, rows, [1], [custom], [2.0])

    def test_pool_failure_counter_disables_and_resets(self, executor_guard, monkeypatch):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        reference = bytes(CONDITION.mask(relation.store, SCHEMA))

        # A pool that cannot be created: every process attempt falls back.
        def no_pool():
            raise OSError("cannot spawn worker processes")

        parallel.reset_process_pool()
        monkeypatch.setattr(parallel._AffinityRouter, "_create_pool", staticmethod(no_pool))
        assert parallel.process_eval_mask(relation.store, CONDITION.program(SCHEMA).run_part) is None
        assert bytes(CONDITION.mask(relation.store, SCHEMA)) == reference
        monkeypatch.undo()
        parallel.reset_process_pool()

        # Repeated infrastructure failures trip the breaker...
        for _ in range(parallel._MAX_POOL_FAILURES):
            parallel._pool_failed()
        assert not parallel.process_eligible(relation.store)
        assert not parallel.probe_process_executor()
        # ...and the breaker is resettable (new sessions start clean).
        parallel._pool_failures = 0
        assert parallel.process_eligible(relation.store)

    def test_reset_and_probe(self, executor_guard):
        parallel.reset_process_pool()
        assert parallel.probe_process_executor() is True
        force_process()
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        expected = bytes(CONDITION.mask(relation.store, SCHEMA))
        stale_publication = relation.store._publication
        failures_before = parallel._pool_failures
        parallel.shutdown()  # the explicit cleanup hook body
        assert not parallel._SEGMENT_REGISTRY
        # After a full shutdown the next query republishes and respawns —
        # including for the store whose publication the shutdown orphaned
        # (its stale segment names must not poison workers or trip the
        # failure breaker).
        assert bytes(CONDITION.mask(relation.store, SCHEMA)) == expected
        assert relation.store._publication is not stale_publication
        assert parallel._pool_failures == failures_before
        relation2 = Relation(SCHEMA, make_rows(2000), backend="sharded")
        assert bytes(CONDITION.mask(relation2.store, SCHEMA)) == expected

    def test_application_errors_propagate_from_workers(self, executor_guard):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        failures_before = parallel._pool_failures
        with pytest.raises(RuntimeError, match="application bug"):
            relation.store.eval_mask(_raising_masker)
        # A computation's own error is not an infrastructure failure: it
        # must not count toward the breaker or silently re-run serially.
        assert parallel._pool_failures == failures_before


# ---------------------------------------------------------------------------
# Property: executors agree on awkward columns
# ---------------------------------------------------------------------------

VALUES = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.floats(-5, 5),
    st.just(float("nan")),
    st.sampled_from(["m", "x", "Zz"]),
)
MIXED_SCHEMA = RelationSchema("m", [Attribute("a", NUMERIC), Attribute("b", TRIVIAL)])
MIXED_CONDITION = Conjunction.of(
    [
        Comparison(AttrRef(None, "a"), CompareOp.LE, Const(1.5)),
        Comparison(AttrRef(None, "b"), CompareOp.NE, Const("m")),
    ]
)


@needs_process
@settings(max_examples=25, deadline=None)
@given(rows=st.lists(st.tuples(VALUES, VALUES), min_size=0, max_size=40))
def test_executors_agree_on_mixed_columns(rows):
    """Serial and process mask evaluation are bit-identical on
    None/NaN/mixed/string columns (the hypothesis property)."""
    cls = ShardedStore.configured(3, "round_robin")
    store = cls.from_rows(2, rows)
    previous_mode = get_shard_executor()
    previous_min = parallel.set_process_min_rows(1)
    try:
        results = {}
        for mode in EXECUTOR_MODES:
            set_shard_executor(mode)
            results[mode] = bytes(MIXED_CONDITION.mask(store, MIXED_SCHEMA))
        assert results["serial"] == results["process"]
    finally:
        set_shard_executor(previous_mode)
        parallel.set_process_min_rows(previous_min)
