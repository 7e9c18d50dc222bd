"""Measurements that run inside a fresh interpreter with the program importable.

``run.py`` starts one of these for each cold start, each batch run's
extracts and each traced or replay run, with ``PYTHONHASHSEED`` pinned
and the checkout's ``src`` on ``PYTHONPATH``, and reads the JSON object
it prints as its last line.  Modes:

``setup FILE``
    The CLI's cold start: ``import repro.cli`` then ``load_oem``.
``extract FILE [K [SECONDS MIN_OPS]]``
    The default extract (``SchemaExtractor(db).extract()``, as
    ``repro-schema extract FILE`` runs it; ``extract(k=K)`` with a
    number ``K``, ``auto`` for the default), repeated on a freshly
    loaded graph until ``SECONDS`` have passed and at least ``MIN_OPS``
    extracts are done (once with neither).  The calibration kernel is
    timed before the first extract and after each one.  Reports every
    extract's time, the kernel timings of each gap, the peak RSS after
    the first extract and every output fingerprint.
``traced FILE K``
    The same pipeline as a chain of the public stage calls, each timed
    from outside with its own ``PerfRecorder``; ``K`` is ``auto`` for
    the sweep's knee or a pinned ``k``.
``replay FILE K PLAN``
    The service write path in process: a ``DatasetSession`` folding the
    remove/add pairs of the JSON plan's ``edges`` one batch at a time,
    then looking up its ``lookups``.

Timed regions hold only calls into the program; the benchmark's own
bookkeeping (digests, JSON) happens outside them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time

import calib

START = time.perf_counter()


def emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(program, assignment, chosen_k, defect, perfect_types) -> dict:
    """What a correct run must reproduce: program text, k, defect, sizes."""
    from repro.core.notation import format_program

    lines = sorted(f"{obj} {' '.join(sorted(t))}" for obj, t in assignment.items())
    return {
        "program": hashlib.sha256(format_program(program).encode()).hexdigest()[:16],
        "assignment": hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16],
        "k": chosen_k,
        "defect": defect,
        "perfect_types": perfect_types,
    }


def mode_setup(path: str) -> None:
    import repro.cli  # noqa: F401  (the cold start being measured)
    from repro.graph.oem import load_oem

    imported = time.perf_counter()
    load_oem(path)
    emit({
        "import_s": imported - START,
        "load_s": time.perf_counter() - imported,
    })


def mode_extract(path: str, k_arg: str = "auto", seconds: str = "0",
                 min_ops: str = "1") -> None:
    from repro.core.pipeline import SchemaExtractor
    from repro.graph.oem import load_oem

    k = None if k_arg == "auto" else int(k_arg)
    budget = float(seconds)
    extract_s, prints = [], []
    gaps = [calib.time_kernel(calib.REPS)]
    peak = None
    started = time.perf_counter()
    while True:
        db = load_oem(path)
        gc.collect()
        start = time.perf_counter()
        result = SchemaExtractor(db).extract(k=k)
        result.describe()
        extract_s.append(time.perf_counter() - start)
        if peak is None:
            peak = peak_rss_mb()
        gaps.append(calib.time_kernel(calib.REPS))
        prints.append(fingerprint(
            result.program, result.assignment, result.chosen_k,
            result.defect.total, result.num_perfect_types,
        ))
        del db, result
        if (time.perf_counter() - started >= budget
                and len(extract_s) >= int(min_ops)):
            break
    emit({
        "extract_s": extract_s,
        "calib_s": gaps,
        "peak_rss_mb": peak,
        "fingerprints": prints,
    })


def _counters(*recorders) -> dict:
    total: dict = {}
    for rec in recorders:
        for name, value in rec.to_dict()["counters"].items():
            total[name] = total.get(name, 0) + value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def mode_traced(path: str, k_arg: str) -> None:
    from repro.core.clustering import GreedyMerger
    from repro.core.defect import compute_defect
    from repro.core.distance import named_distances
    from repro.core.fixpoint import greatest_fixpoint
    from repro.core.perfect import (
        build_object_program,
        collapse_object_fixpoint,
        local_rule,
    )
    from repro.core.recast import recast
    from repro.core.sensitivity import sensitivity_sweep
    from repro.graph.oem import load_oem
    from repro.perf import PerfRecorder

    db = load_oem(path)
    rec1, rec_sweep, rec2, rec3 = (PerfRecorder() for _ in range(4))
    layer = {}

    def timed(name, call, *args, **kwargs):
        start = time.perf_counter()
        out = call(*args, **kwargs)
        layer[name] = time.perf_counter() - start
        return out

    traced_start = time.perf_counter()
    q_program = timed("stage1.build_qd_s", build_object_program, db)
    fixpoint = timed("stage1.gfp_s", greatest_fixpoint, q_program, db, perf=rec1)
    stage1 = timed(
        "stage1.collapse_s", collapse_object_fixpoint, db, local_rule, fixpoint
    )
    assignment = stage1.assignment()
    weights = {n: float(w) for n, w in stage1.weights.items()}
    distance = named_distances(len(stage1.program.typed_links()))["delta_2"]
    if k_arg == "auto":
        sweep = timed(
            "sweep_s", sensitivity_sweep, db, stage1=stage1,
            assignment=assignment, weights=weights, distance=distance,
            perf=rec_sweep,
        )
        k = sweep.knee()
    else:
        layer["sweep_s"] = 0.0
        k = int(k_arg)
    k = min(k, len(stage1.program))
    merger = GreedyMerger(stage1.program, weights, distance=distance, perf=rec2)
    stage2 = timed("stage2_s", merger.run_to, k)
    home = stage2.map_assignment(assignment)
    result = timed("stage3_s", recast, stage2.program, db, home=home, perf=rec3)
    defect = timed(
        "defect_s", compute_defect, stage2.program, db, result.assignment
    )
    traced = time.perf_counter() - traced_start

    gfp = rec1.to_dict()["counters"]
    sweep_counters = rec_sweep.to_dict()["counters"]
    merge = rec2.to_dict()["counters"]
    stage3 = rec3.to_dict()["counters"]
    kernels = _counters(rec_sweep, rec2, rec3)
    metrics = dict(layer)
    metrics.update({
        "stage1.qd_rules": len(q_program),
        "gfp.type_rechecks": gfp.get("gfp.type_rechecks", 0),
        "gfp.object_checks": gfp.get("gfp.object_checks", 0),
        "gfp.satisfaction_checks": gfp.get("gfp.satisfaction_checks", 0),
        "gfp.removed_per_check": _ratio(
            gfp.get("gfp.objects_removed", 0), gfp.get("gfp.object_checks", 0)
        ),
        "stage1.perfect_types": stage1.num_types,
        "sweep.samples": sweep_counters.get("sweep.samples", 0),
        "recast.memo_hit_ratio": _ratio(
            sweep_counters.get("recast.memo_hits", 0),
            sweep_counters.get("recast.cover_checks", 0),
        ),
        "merge.steps": merge.get("merge.steps", 0),
        "merge.heap_pops": merge.get("merge.heap_pops", 0),
        "merge.stale_pop_ratio": _ratio(
            merge.get("merge.stale_pops", 0), merge.get("merge.heap_pops", 0)
        ),
        "merge.manhattan_evals": merge.get("merge.manhattan_evals", 0),
        "linkspace.matrix_distance_rows": kernels.get(
            "linkspace.matrix_distance_rows", 0
        ),
        "linkspace.matrix_evals": kernels.get("linkspace.matrix_evals", 0),
        "linkspace.encodes": kernels.get("linkspace.encodes", 0),
        "recast.cover_checks": stage3.get("recast.cover_checks", 0),
        "recast.evaluations": stage3.get("recast.evaluations", 0),
        "traced_s": traced,
        "unattributed_s": traced - sum(layer.values()),
    })
    emit({
        "metrics": metrics,
        "fingerprint": fingerprint(
            stage2.program, result.assignment, k, defect.total, stage1.num_types
        ),
    })


def _timers(rec) -> dict:
    return {n: t["seconds"] for n, t in rec.to_dict()["timers"].items()}


def mode_replay(path: str, k_arg: str, plan_path: str) -> None:
    from repro.graph.oem import load_oem
    from repro.perf import PerfRecorder
    from repro.service.session import DatasetSession

    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    db = load_oem(path)
    rec = PerfRecorder()
    session = DatasetSession(db, k=int(k_arg), perf=rec)
    initial = session.schema()["program"]
    counters_before = dict(rec.to_dict()["counters"])
    timers_before = _timers(rec)

    apply_s, refresh_s, lookup_s = [], [], []
    mismatches = 0
    for src, dst, label in plan["edges"]:
        for op in ("remove-link", "add-link"):
            start = time.perf_counter()
            log = session.apply_batch([(op, src, dst, label)])
            session.note_changes(log)
            applied = time.perf_counter()
            refreshed = session.refresh()
            done = time.perf_counter()
            apply_s.append(applied - start)
            refresh_s.append(done - applied)
            mismatches += not refreshed
        mismatches += session.schema()["program"] != initial
    for obj in plan["lookups"]:
        start = time.perf_counter()
        session.lookup(obj)
        lookup_s.append(time.perf_counter() - start)

    refreshes = len(refresh_s)
    counters = rec.to_dict()["counters"]
    timers = _timers(rec)

    def per_refresh(name: str) -> float:
        return (counters.get(name, 0) - counters_before.get(name, 0)) / refreshes

    def span_ms(*names: str) -> float:
        spent = sum(timers.get(n, 0.0) - timers_before.get(n, 0.0) for n in names)
        return 1000.0 * spent / refreshes

    emit({
        "mismatches": mismatches,
        "operations": refreshes + len(plan["edges"]),
        "metrics": {
            "session.apply_ms": 1000.0 * statistics.median(apply_s),
            "session.refresh_ms": 1000.0 * statistics.median(refresh_s),
            "refresh.delta_ms": span_ms(
                "delta.index", "delta.seed", "delta.closure",
                "delta.iterate", "delta.collapse",
            ),
            "refresh.stage2_ms": span_ms("pipeline.stage2"),
            "refresh.stage3_ms": span_ms("pipeline.stage3"),
            "delta.satisfaction_checks": per_refresh("delta.satisfaction_checks"),
            "delta.type_rechecks": per_refresh("delta.type_rechecks"),
            "delta.objects_visited": per_refresh("delta.objects_visited"),
            "session.lookup_us": 1e6 * statistics.median(lookup_s),
        },
    })


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    {
        "setup": mode_setup,
        "extract": mode_extract,
        "traced": mode_traced,
        "replay": mode_replay,
    }[mode](*args)
