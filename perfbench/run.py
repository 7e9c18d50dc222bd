"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bounded|scaled|service \
        --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists); each is one
fixed base graph that the seed renames (``gen.py``):

``bounded``
    The default ``repro-schema extract`` (sweep picks the knee) of a
    ~6.3k-object union of 12 bounded-variety components.  Stage 1
    dominates.
``scaled``
    The default extract of the 582-object high-variety ``make_scaled``
    graph (118 perfect types).  The sweep dominates.
``service``
    ``repro-schema serve -k 5`` on a ~4.2k-object bounded graph over a
    real socket: an idle closed-loop lookup burst, then one closed-loop
    writer toggling a fixed plan of edges (each mutate waits for a fresh
    schema) beside one open-loop reader.

Each cold start, each batch run's extracts and each daemon get a fresh
interpreter (``child.py`` or the daemon) with ``PYTHONHASHSEED`` pinned
and only the checkout's ``src`` importable; a batch run repeats its
extract in that one interpreter until ``--seconds`` have passed and
reports the median.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  Outputs are checked against the fingerprints in
``expected.json`` for shipped seeds, and against the first run's
fingerprint (kept under ``.perfbench_work/``) for any other seed; every
mismatch, non-2xx answer or timeout counts as a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

import calib
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT = 170.0

SETUP_RUNS = 5          # cold starts per batch run (median reported)
MIN_EXTRACTS = 3        # extracts per batch run, however long they take
SERVICE_SETUP_RUNS = 3  # daemon starts per service run
SERVICE_K = 5
IDLE_LOOKUPS = 300      # closed loop, one connection
MUTATE_PAIRS = 55       # 110 mutates: p90 has 11 samples beyond it
READ_RATE = 10.0        # open-loop lookups per second beside the writer
REPLAY_PAIRS = 20       # in-process write-path replay (traced run)

END_TO_END = {
    "setup_s": "s",
    "op_rel": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import_s": "s",
    "graph.load_s": "s",
    "calib_s": "s",
    "op_ms": "ms",
    "stage1.build_qd_s": "s",
    "stage1.qd_rules": "count",
    "stage1.gfp_s": "s",
    "gfp.type_rechecks": "count",
    "gfp.object_checks": "count",
    "gfp.satisfaction_checks": "count",
    "gfp.removed_per_check": "ratio",
    "stage1.collapse_s": "s",
    "stage1.perfect_types": "count",
    "sweep_s": "s",
    "sweep.samples": "count",
    "recast.memo_hit_ratio": "ratio",
    "stage2_s": "s",
    "merge.steps": "count",
    "merge.heap_pops": "count",
    "merge.stale_pop_ratio": "ratio",
    "merge.manhattan_evals": "count",
    "linkspace.matrix_distance_rows": "count",
    "linkspace.matrix_evals": "count",
    "linkspace.encodes": "count",
    "stage3_s": "s",
    "recast.cover_checks": "count",
    "recast.evaluations": "count",
    "defect_s": "s",
    "traced_s": "s",
    "unattributed_s": "s",
    "tracing_overhead_s": "s",
    "session.apply_ms": "ms",
    "session.refresh_ms": "ms",
    "refresh.delta_ms": "ms",
    "refresh.stage2_ms": "ms",
    "refresh.stage3_ms": "ms",
    "delta.satisfaction_checks": "count",
    "delta.type_rechecks": "count",
    "delta.objects_visited": "count",
    "session.lookup_us": "us",
    "mutate_p90_ms": "ms",
    "lookup_p50_ms": "ms",
    "lookup_p90_ms": "ms",
    "read_rps": "1/s",
    "http.lookup_overhead_ms": "ms",
    "read.wait_ms": "ms",
    "generator_late_ms": "ms",
    "daemon.peak_rss_end_mb": "MB",
}
SERVICE_ONLY = tuple(name for name in PER_LAYER if name.startswith((
    "session.", "refresh.", "delta.", "mutate_", "lookup_", "read",
    "http.", "generator_", "daemon.",
)))


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures = []
        self._lock = threading.Lock()

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(what)
        return ok


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def run_child(*args: str) -> dict:
    """Run ``child.py`` in a fresh interpreter; its last line is JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def reference_fingerprint(workload: str, seed: int, observed: dict) -> dict:
    """The fingerprint a correct run must show.

    Shipped seeds have it committed; for another seed the first run in
    this checkout records what it saw and every later run must agree.
    """
    shipped = load_expected().get(workload, {}).get(str(seed))
    if shipped is not None:
        return shipped
    path = os.path.join(WORK, "fingerprints.json")
    seen = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            seen = json.load(handle)
    key = f"{workload}:{seed}"
    if key not in seen:
        seen[key] = observed
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(seen, handle, indent=1, sort_keys=True)
    return seen[key]


def same_fingerprint(observed: dict, reference: dict) -> bool:
    return all(observed.get(key) == value for key, value in reference.items())


# ---------------------------------------------------------------------------
# Batch workloads: bounded, scaled
# ---------------------------------------------------------------------------
def measure_setup(path: str, tally: Tally):
    """Median wall time of fresh-interpreter cold starts, plus their split."""
    run_child("setup", path)  # warm the bytecode cache; not timed
    walls, imports, loads = [], [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        out = run_child("setup", path)
        walls.append(time.perf_counter() - start)
        imports.append(out["import_s"])
        loads.append(out["load_s"])
        tally.check(True, "setup")
    return (statistics.median(walls), statistics.median(imports),
            statistics.median(loads))


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              path: str, tally: Tally) -> dict:
    setup_s, import_s, load_s = measure_setup(path, tally)
    if trace:
        out = run_child("extract", path)
    else:
        out = run_child("extract", path, "auto", str(seconds), str(MIN_EXTRACTS))
    prints = out["fingerprints"]
    reference = reference_fingerprint(workload, seed, prints[0])
    for observed in prints:
        tally.check(same_fingerprint(observed, reference),
                    f"extract fingerprint {observed} != {reference}")
    extract_s = statistics.median(out["extract_s"])
    calib_s = statistics.median(sum(out["calib_s"], []))
    rel = statistics.median(calib.relative(out["extract_s"], out["calib_s"]))
    if not trace:
        print(f"diagnostic: calib_s={calib_s:.4f} op_ms={1000 * extract_s:.1f} "
              f"extract_s={[round(op, 3) for op in out['extract_s']]}",
              file=sys.stderr)
        return {
            "setup_s": setup_s,
            "op_rel": rel,
            "peak_rss_mb": out["peak_rss_mb"],
        }
    traced = run_child("traced", path, "auto")
    tally.check(same_fingerprint(traced["fingerprint"], prints[0]),
                "traced chain differs from SchemaExtractor.extract()")
    metrics = dict.fromkeys(SERVICE_ONLY, 0.0)
    metrics.update(traced["metrics"])
    metrics.update({
        "import_s": import_s,
        "graph.load_s": load_s,
        "calib_s": calib_s,
        "op_ms": 1000.0 * extract_s,
        "tracing_overhead_s": metrics["traced_s"] - extract_s,
    })
    return metrics


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------
def pin_to_service_cpu() -> None:
    """Run on one CPU: the daemon's, which its calibration shares.

    The host slows each CPU at its own times, so the kernel must time
    the CPU that does the refreshing.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Daemon:
    """One ``repro-schema serve`` process and a tiny HTTP client for it."""

    def __init__(self, path: str) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", path, "--port", "0",
             "-k", str(SERVICE_K), "--rate", "1000000", "--burst", "1000000"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            preexec_fn=pin_to_service_cpu,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on "):
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.host, port = line.split()[-1].rsplit(":", 1)
            self.port = int(port)
            while self.request("GET", "/readyz")[0] != 200:
                time.sleep(0.005)
            self.setup_s = time.perf_counter() - start
            self.ready_rss_mb = self.peak_rss_mb()
        except BaseException:
            self.stop()
            raise

    def request(self, method: str, path: str, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> bool:
        """SIGTERM and wait; True on a clean 'shutdown complete' exit 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rest = self.proc.communicate(timeout=30)[0] or ""
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return False
        return self.proc.returncode == 0 and "shutdown complete" in rest


class Calibrator:
    """The calibration kernel in its own process, on the daemon's CPU.

    It runs only while the writer waits between mutates, when the daemon
    is idle, so it neither slows a refresh nor holds up the reader.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calib.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, preexec_fn=pin_to_service_cpu,
        )

    def sample(self) -> list:
        self.proc.stdin.write(f"{calib.REPS}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def service_plan(base: "gen.Graph", rename: dict, pairs: int) -> dict:
    """Edges to toggle and objects to look up, renamed like the graph.

    They are drawn from the base graph with a fixed generator, so every
    seed replays the same mutations up to renaming.
    """
    rand = random.Random("service-plan")
    complex_edges = sorted(
        edge for edge in base.edges if edge[1] not in base.atomic
    )
    return {
        "edges": [(rename[s], rename[d], label)
                  for s, d, label in rand.sample(complex_edges, pairs)],
        "lookups": [rename[rand.choice(base.complex)]
                    for _ in range(IDLE_LOOKUPS)],
    }


def lookup_ok(status: int, body, obj: str) -> bool:
    return (status == 200 and isinstance(body, dict)
            and body.get("object") == obj
            and isinstance(body.get("types"), list) and bool(body["types"]))


def timed_request(daemon: Daemon, method: str, path: str, body=None):
    start = time.perf_counter()
    try:
        status, answer = daemon.request(method, path, body)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        status, answer = 0, repr(exc)
    return status, answer, time.perf_counter() - start


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def idle_phase(daemon: Daemon, plan: dict, tally: Tally):
    """Closed-loop lookups on one connection at a time: rps and latency."""
    latencies = []
    baseline = {}
    started = time.perf_counter()
    for obj in plan["lookups"]:
        status, body, took = timed_request(daemon, "GET", f"/lookup/{obj}")
        ok = lookup_ok(status, body, obj) and body.get("stale") is False
        if ok:
            ok = baseline.setdefault(obj, body["types"]) == body["types"]
        tally.check(ok, f"idle lookup {obj}: {status} {body}")
        latencies.append(took)
    elapsed = time.perf_counter() - started
    return len(latencies) / elapsed, latencies


def mixed_phase(daemon: Daemon, calibrator: Calibrator, plan: dict,
                schema: dict, tally: Tally):
    """A closed-loop writer beside an open-loop reader.

    The writer times the calibration kernel before its first remove/add
    pair and after each one (``gaps``).
    """
    mutate_s, lookup_s, late_s, gaps = [], [], [], []
    done = threading.Event()

    def writer() -> None:
        try:
            gaps.append(calibrator.sample())
            for src, dst, label in plan["edges"]:
                for op in ("remove-link", "add-link"):
                    body = {"ops": [{"op": op, "src": src, "dst": dst,
                                     "label": label}]}
                    status, answer, took = timed_request(
                        daemon, "POST", "/mutate", body)
                    ok = (status == 200 and isinstance(answer, dict)
                          and answer.get("refreshed") is True
                          and answer.get("stale") is False)
                    tally.check(ok, f"{op} {src} {dst}: {status} {answer}")
                    mutate_s.append(took)
                status, answer, _ = timed_request(daemon, "GET", "/schema")
                ok = status == 200 and all(
                    answer.get(key) == schema[key]
                    for key in ("program", "k", "defect", "num_perfect_types")
                )
                tally.check(ok, f"schema after toggling {src} {dst} changed")
                gaps.append(calibrator.sample())
        finally:
            done.set()

    def reader() -> None:
        rand = random.Random(1)
        objects = plan["lookups"]
        start = time.perf_counter()
        index = 0
        while not done.is_set():
            due = start + index / READ_RATE
            now = time.perf_counter()
            if now < due:
                done.wait(due - now)
                if done.is_set():
                    break
            late_s.append(max(0.0, time.perf_counter() - due))
            obj = objects[rand.randrange(len(objects))]
            status, body, _ = timed_request(daemon, "GET", f"/lookup/{obj}")
            tally.check(lookup_ok(status, body, obj),
                        f"lookup under writes {obj}: {status} {body}")
            lookup_s.append(time.perf_counter() - due)
            index += 1

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return mutate_s, lookup_s, late_s, gaps


def run_service(seed: int, trace: bool, base: "gen.Graph", rename: dict,
                path: str, tally: Tally) -> dict:
    plan = service_plan(base, rename, MUTATE_PAIRS)
    daemons = []
    for _ in range(1 if trace else SERVICE_SETUP_RUNS - 1):
        daemon = Daemon(path)
        daemons.append(daemon)
        tally.check(daemon.stop(), "daemon did not shut down cleanly")
    daemon = Daemon(path)
    daemons.append(daemon)
    try:
        status, schema = daemon.request("GET", "/schema")
        tally.check(status == 200, f"GET /schema: {status}")
        observed = {
            "program": hashlib.sha256(
                schema["program"].encode()).hexdigest()[:16],
            "k": schema["k"],
            "defect": schema["defect"],
            "perfect_types": schema["num_perfect_types"],
        }
        reference = reference_fingerprint("service", seed, observed)
        tally.check(same_fingerprint(observed, reference),
                    f"initial schema {observed} != {reference}")
        read_rps, idle_s = idle_phase(daemon, plan, tally)
        calibrator = Calibrator()
        try:
            mutate_s, lookup_s, late_s, gaps = mixed_phase(
                daemon, calibrator, plan, schema, tally)
        finally:
            calibrator.stop()
        end_rss = daemon.peak_rss_mb()
    finally:
        tally.check(daemon.stop(), "daemon did not shut down cleanly")
    calib_s = statistics.median(sum(gaps, []))
    mutate_p50 = statistics.median(mutate_s)
    rel = statistics.median(calib.relative(mutate_s, gaps, per_gap=2))
    if not trace:
        print(f"diagnostic: calib_s={calib_s:.4f} "
              f"op_ms={1000 * mutate_p50:.1f} mutates={len(mutate_s)} "
              f"lookups={len(lookup_s)} end_rss_mb={end_rss:.1f}",
              file=sys.stderr)
        return {
            "setup_s": statistics.median(d.setup_s for d in daemons),
            "op_rel": rel,
            # The peak once ready: the initial extraction's.  The end-of-run
            # peak depends on when the collector runs between refreshes, so
            # it moves with request timing (108-131 MB); it is per-layer.
            "peak_rss_mb": statistics.median(d.ready_rss_mb for d in daemons),
        }
    replay_plan = {"edges": plan["edges"][:REPLAY_PAIRS],
                   "lookups": plan["lookups"]}
    plan_path = os.path.join(WORK, f"plan-{os.getpid()}.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(replay_plan, handle)
    try:
        replay = run_child("replay", path, str(SERVICE_K), plan_path)
    finally:
        os.remove(plan_path)
    tally.attempted += replay["operations"]
    tally.failures.extend(
        ["in-process replay: refresh skipped or schema changed"]
        * replay["mismatches"]
    )
    untraced = run_child("extract", path, str(SERVICE_K))
    untraced_print = untraced["fingerprints"][0]
    traced = run_child("traced", path, str(SERVICE_K))
    tally.check(same_fingerprint(traced["fingerprint"], untraced_print)
                and untraced_print["program"] == observed["program"],
                "traced chain differs from extract() or the daemon's schema")
    idle_p50 = statistics.median(idle_s)
    lookup_p50 = statistics.median(lookup_s)
    _, import_s, load_s = measure_setup(path, tally)
    metrics = dict(traced["metrics"])
    metrics.update(replay["metrics"])
    metrics.update({
        "import_s": import_s,
        "graph.load_s": load_s,
        "tracing_overhead_s": metrics["traced_s"] - untraced["extract_s"][0],
        "calib_s": calib_s,
        "op_ms": 1000.0 * mutate_p50,
        "daemon.peak_rss_end_mb": end_rss,
        "mutate_p90_ms": 1000.0 * percentile(mutate_s, 0.9),
        "lookup_p50_ms": 1000.0 * lookup_p50,
        "lookup_p90_ms": 1000.0 * percentile(lookup_s, 0.9),
        "read_rps": read_rps,
        "http.lookup_overhead_ms": (
            1000.0 * idle_p50 - replay["metrics"]["session.lookup_us"] / 1000.0
        ),
        "read.wait_ms": 1000.0 * (lookup_p50 - idle_p50),
        "generator_late_ms": 1000.0 * percentile(late_s, 0.9),
    })
    return metrics


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so every daemon and child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no program under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}.oem")
    base, rename, _ = gen.write(args.workload, args.seed, path)
    tally = Tally()
    try:
        if args.workload == "service":
            metrics = run_service(args.seed, bool(args.trace), base, rename,
                                  path, tally)
        else:
            metrics = run_batch(args.workload, args.seed, args.seconds,
                                bool(args.trace), path, tally)
    finally:
        os.remove(path)
    for failure in tally.failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
