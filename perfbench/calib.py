"""The drift reference: a fixed pure-Python kernel timed beside each operation.

The host's speed drifts between two levels about 1.7x apart, each held
for tens of seconds to minutes, and the guest cannot see it (little
steal time, CPU time tracks wall time).  A fixed amount of interpreter
work, timed on the same CPU just before and just after a measured
operation, slows down with it; dividing the operation's time by the
kernel's gives the ``op_rel`` metric.

The kernel does what the Stage 1 fixpoint does most -- build small
frozensets, hash them into dict keys, chase successor lists -- on a
fixed 4096-node graph.  It allocates well under a megabyte, so it never
sets the process's peak RSS.  The collector is paused while it runs:
its garbage is acyclic, and a collection would otherwise charge it for
walking whatever else the process holds.

Run as a script, it times the kernel for another process: each line
``N`` read from standard input is answered with a JSON list of ``N``
timings, until end of input.
"""

from __future__ import annotations

import gc
import json
import sys
import time

NODES = 4096
ROUNDS = 5
REPS = 2  # kernel timings in each gap between measured operations
CHECKSUM = 14336  # kernel()'s value; a different one means broken work


def kernel() -> int:
    """One fixed unit of dict/set work; returns a checksum of it."""
    succ = [
        ((i * 7 + 1) % NODES, (i * 13 + 5) % NODES, (i * 31 + 11) % NODES)
        for i in range(NODES)
    ]
    block = [i % 8 for i in range(NODES)]
    for _ in range(ROUNDS):
        classes = {}
        for i in range(NODES):
            key = (block[i], frozenset(block[j] for j in succ[i]))
            classes.setdefault(key, len(classes))
        block = [
            classes[(block[i], frozenset(block[j] for j in succ[i]))] % 64
            for i in range(NODES)
        ]
    return sum(block)


def time_kernel(reps: int) -> list:
    """Seconds of each of ``reps`` kernel runs (each checked)."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            start = time.perf_counter()
            value = kernel()
            samples.append(time.perf_counter() - start)
            if value != CHECKSUM:
                raise RuntimeError(
                    f"calibration kernel checksum {value} != {CHECKSUM}"
                )
    finally:
        if enabled:
            gc.enable()
    return samples


def relative(times: list, gaps: list, per_gap: int = 1) -> list:
    """Each operation's time over the mean kernel timing around it.

    ``gaps[g]`` holds the timings taken before the operations of group
    ``g`` (``per_gap`` operations each) and ``gaps[g + 1]`` those after.
    """
    out = []
    for index, took in enumerate(times):
        group = index // per_gap
        around = gaps[group] + gaps[group + 1]
        out.append(took / (sum(around) / len(around)))
    return out


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(time_kernel(int(line))), flush=True)
