"""Tests for the distributed reconcile and the long-lived pool lease.

The distributed reconcile must be *extent-identical* to both oracles
(the sequential ``minimal_perfect_typing`` and the full-database-GFP
reconcile), its failure paths must degrade rather than break, and a
:class:`~repro.parallel.pool.PoolLease` must make one pool (and one
shipped payload) serve consecutive extractions without leaking
``/dev/shm`` segments — including across a SIGINT.
"""

import glob
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core.perfect import minimal_perfect_typing
from repro.exceptions import ClusteringError
from repro.graph.database import Database
from repro.graph.partition import partition_database
from repro.parallel import (
    ParallelExtractor,
    PoolLease,
    merge_shard_typings,
    restricted_reconcile,
    sharded_stage1,
)
from repro.perf import PerfRecorder
from repro.synth.datasets import make_dbg


def _union(dbs):
    out = Database()
    for index, db in enumerate(dbs):
        prefix = f"c{index}_"
        for obj in db.objects():
            if db.is_atomic(obj):
                out.add_atomic(prefix + obj, db.value(obj))
            else:
                out.add_complex(prefix + obj)
        for edge in db.edges():
            out.add_link(prefix + edge.src, prefix + edge.dst, edge.label)
    return out


@pytest.fixture(scope="module")
def multi_db():
    # Repeated seeds on purpose: duplicated components make the
    # bisimulation quotient strictly smaller than the combined program.
    return _union([make_dbg(seed=s) for s in (21, 22, 23, 21)])


@pytest.fixture(scope="module")
def sequential(multi_db):
    return minimal_perfect_typing(multi_db)


def _no_repro_segments():
    return [
        path for path in glob.glob("/dev/shm/repro_*")
        if os.path.exists(path)
    ]


class TestRestrictedReconcile:
    def test_matches_both_oracles(self, multi_db, sequential):
        with_reconcile = sharded_stage1(multi_db, 4)
        full_gfp = sharded_stage1(multi_db, 4, parallel_reconcile=False)
        assert with_reconcile.extents == full_gfp.extents
        assert with_reconcile.extents == sequential.extents
        assert with_reconcile.home_type == sequential.home_type

    def test_counters(self, multi_db):
        perf = PerfRecorder()
        sharded_stage1(multi_db, 4, perf=perf)
        snapshot = perf.to_dict()["counters"]
        assert snapshot["parallel.reconcile_tasks"] == 4
        assert snapshot["parallel.reconcile_quotient_rules"] > 0
        assert snapshot["parallel.reconcile_members"] > 0
        assert "parallel.reconcile_fallbacks" not in snapshot
        assert "parallel.shard_stage1" in perf.to_dict()["timers"]

    def test_failing_reconcile_falls_back(self, multi_db, sequential):
        shards = partition_database(multi_db, 4)
        typings = [
            minimal_perfect_typing(
                _extract(multi_db, shard.objects)
            )
            for shard in shards
        ]
        perf = PerfRecorder()

        def broken(combined, budget):
            raise RuntimeError("injected reconcile fault")

        merged = merge_shard_typings(
            multi_db, typings, perf=perf, reconcile=broken
        )
        assert merged.extents == sequential.extents
        assert perf.to_dict()["counters"][
            "parallel.reconcile_fallbacks"
        ] == 1


def _extract(db, objects):
    from repro.graph.partition import extract_shard

    return extract_shard(db, objects)


class TestMergeErrorPaths:
    def test_duplicate_object_across_shards(self, multi_db):
        shards = partition_database(multi_db, 2)
        shard_db = _extract(multi_db, shards[0].objects)
        typing = minimal_perfect_typing(shard_db)
        with pytest.raises(ClusteringError, match="more than one shard"):
            merge_shard_typings(multi_db, [typing, typing])

    def test_uncovered_class_is_rejected(self, multi_db):
        import dataclasses

        from repro.core.typing_program import (
            ATOMIC,
            Direction,
            TypedLink,
            TypeRule,
            TypingProgram,
        )

        shards = partition_database(multi_db, 2)
        typings = [
            minimal_perfect_typing(_extract(multi_db, shard.objects))
            for shard in shards
        ]
        # Corrupt one shard typing with a class no object can satisfy
        # (and no object calls home): its global extent is empty and
        # unique, so the extent grouping must flag it as uncovered.
        victim = typings[0]
        ghost = TypeRule(
            "zzz_ghost",
            frozenset({TypedLink(Direction.OUT, "__no_such_label__", ATOMIC)}),
        )
        corrupted = TypingProgram(
            list(victim.program.rules()) + [ghost], check=False
        )
        typings[0] = dataclasses.replace(victim, program=corrupted)
        with pytest.raises(ClusteringError, match="do not cover"):
            merge_shard_typings(multi_db, typings)


class TestPooledReconcile:
    def test_extractor_matches_oracles(self, multi_db, sequential):
        perf = PerfRecorder()
        pooled = ParallelExtractor(multi_db, jobs=2, perf=perf).stage1()
        assert pooled.extents == sequential.extents
        counters = perf.to_dict()["counters"]
        assert counters["parallel.reconcile_tasks"] >= 2
        assert counters["parallel.reconcile_bytes"] > 0
        assert "parallel.reconcile_fanout" in perf.to_dict()["timers"]
        assert not _no_repro_segments()

    def test_no_parallel_reconcile_oracle(self, multi_db, sequential):
        perf = PerfRecorder()
        oracle = ParallelExtractor(
            multi_db, jobs=2, parallel_reconcile=False, perf=perf
        ).stage1()
        assert oracle.extents == sequential.extents
        assert "parallel.reconcile_tasks" not in perf.to_dict()["counters"]


class TestPoolLease:
    def test_one_pool_serves_two_extractions(self, multi_db, sequential):
        perf = PerfRecorder()
        with PoolLease(jobs=2, perf=perf) as lease:
            first = ParallelExtractor(
                multi_db, jobs=2, pool_lease=lease, perf=perf
            ).stage1()
            second = ParallelExtractor(
                multi_db, jobs=2, pool_lease=lease, perf=perf
            ).stage1()
            assert first.extents == second.extents == sequential.extents
            counters = perf.to_dict()["counters"]
            assert counters["parallel.lease_hits"] >= 1
            assert "parallel.pool_rebuilds" not in counters
        assert not _no_repro_segments()

    def test_epoch_bump_rebuilds(self, multi_db):
        perf = PerfRecorder()
        with PoolLease(jobs=2, perf=perf) as lease:
            ParallelExtractor(
                multi_db, jobs=2, pool_lease=lease, perf=perf
            ).stage1()
            lease.bump_epoch()
            ParallelExtractor(
                multi_db, jobs=2, pool_lease=lease, perf=perf
            ).stage1()
            counters = perf.to_dict()["counters"]
            assert counters["parallel.pool_rebuilds"] >= 1
        assert not _no_repro_segments()

    def test_close_is_idempotent(self, multi_db):
        lease = PoolLease(jobs=2)
        ParallelExtractor(multi_db, jobs=2, pool_lease=lease).stage1()
        lease.close()
        lease.close()
        assert not _no_repro_segments()

    def test_sigint_leaves_no_segments(self, tmp_path):
        """A SIGINT mid-extraction with an open lease must not leak."""
        script = textwrap.dedent(
            """
            import sys
            from repro.graph.database import Database
            from repro.parallel import ParallelExtractor, PoolLease
            from repro.synth.datasets import make_dbg

            def union(dbs):
                out = Database()
                for index, db in enumerate(dbs):
                    prefix = f"c{index}_"
                    for obj in db.objects():
                        if db.is_atomic(obj):
                            out.add_atomic(prefix + obj, db.value(obj))
                        else:
                            out.add_complex(prefix + obj)
                    for edge in db.edges():
                        out.add_link(
                            prefix + edge.src, prefix + edge.dst, edge.label
                        )
                return out

            db = union([make_dbg(seed=s) for s in (21, 22, 23)])
            lease = PoolLease(jobs=2)
            try:
                while True:
                    ParallelExtractor(
                        db, jobs=2, pool_lease=lease
                    ).stage1()
                    print("cycle", flush=True)
            finally:
                lease.close()
            """
        )
        env = dict(os.environ)
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # Wait for at least one completed cycle so the pool is live.
            line = proc.stdout.readline()
            assert "cycle" in line
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        deadline = time.time() + 10
        while time.time() < deadline and _no_repro_segments():
            time.sleep(0.2)
        assert not _no_repro_segments(), (
            "SIGINT with an open PoolLease leaked shared-memory segments"
        )


class TestServiceSessionJobs:
    def test_mutate_refresh_close(self, multi_db, sequential):
        from repro.service.session import DatasetSession

        session = DatasetSession(multi_db.copy(), jobs=2)
        try:
            assert session.status()["jobs"] == 2
            db = session.db
            some = next(iter(db.complex_objects()))
            log = session.apply_batch(
                [("add-object", "zz_new"), ("add-link", "zz_new", some,
                                            "friend")]
            )
            session.note_changes(log)
            assert session.stale
            assert session.refresh()
            assert not session.stale
        finally:
            session.close()
        assert session.status()["jobs"] == 1
        assert not _no_repro_segments()
