"""Seeded input graphs for the benchmark, written as OEM text.

The generator lives here, not in the program under test, so a change to
``repro.synth`` cannot change what the benchmark measures.  It follows
the program's random-instance recipe draw for draw: every link spec of
every object fires with its probability, atomic targets are fresh
atomic objects, complex targets are uniform picks of the target type
with up to four retries against duplicates and self-links.  With the
same seeds it therefore yields exactly the graphs of
``benchmarks/bench_scalability.py`` (``make_scaled``,
``make_large_multi_component``), byte for byte after ``dumps_oem``;
the benchmark seed then renames them (see ``BASES``).

Usage: ``python3 perfbench/gen.py bounded|scaled|service SEED OUT``.
"""

from __future__ import annotations

import json
import random
import sys

ATOMIC = None

# (type name, ((label, target type or ATOMIC, probability), ...))
SCALED_TYPES = (
    ("a", (("a-name", ATOMIC, 1.0), ("owns", "b", 0.8))),
    ("b", (("b-name", ATOMIC, 0.9), ("uses", "c", 0.7))),
    ("c", (("c-name", ATOMIC, 1.0), ("refs", "c", 0.3))),
    ("d", (("d-name", ATOMIC, 0.8), ("sees", "a", 0.5))),
)
BOUNDED_TYPES = (
    ("r", (("r-name", ATOMIC, 1.0), ("member", "m", 1.0))),
    ("m", (("m-name", ATOMIC, 1.0), ("item", "i", 1.0))),
    ("i", (("i-name", ATOMIC, 1.0), ("tag", ATOMIC, 0.5))),
    ("x", (("x-name", ATOMIC, 1.0), ("links", "r", 0.5))),
)


class Graph:
    """Complex objects, atomic values and labelled edges (a set)."""

    def __init__(self) -> None:
        self.complex = []
        self.atomic = {}
        self.edges = set()

    def absorb(self, other: "Graph", prefix: str) -> None:
        self.complex.extend(prefix + obj for obj in other.complex)
        for obj, value in other.atomic.items():
            self.atomic[prefix + obj] = value
        self.edges.update(
            (prefix + s, prefix + d, label) for s, d, label in other.edges
        )

    def oem(self) -> str:
        """OEM text in the program's canonical (sorted) order."""
        linked = set()
        for src, dst, _ in self.edges:
            linked.add(src)
            linked.add(dst)
        lines = [f"complex {o}" for o in sorted(self.complex) if o not in linked]
        lines += [
            f"atomic {o} {json.dumps(self.atomic[o])}" for o in sorted(self.atomic)
        ]
        lines += [f"link {s} {d} {label}" for s, d, label in sorted(self.edges)]
        return "\n".join(lines) + "\n"


def generate(types, per_type: int, seed: int) -> Graph:
    rand = random.Random(seed)
    graph = Graph()
    members = {}
    for name, _ in types:
        members[name] = [f"{name}_{i}" for i in range(per_type)]
        graph.complex.extend(members[name])
    counter = 0
    for name, links in types:
        for src in members[name]:
            for label, target, probability in links:
                if rand.random() >= probability:
                    continue
                if target is ATOMIC:
                    obj = f"a{counter}"
                    counter += 1
                    graph.atomic[obj] = f"{label}-value-{counter}"
                    graph.edges.add((src, obj, label))
                    continue
                pool = members[target]
                for _attempt in range(4):
                    dst = pool[rand.randrange(len(pool))]
                    if dst == src and len(pool) > 1:
                        continue
                    if (src, dst, label) not in graph.edges:
                        break
                graph.edges.add((src, dst, label))
    return graph


def make_scaled(num_objects: int, seed: int) -> Graph:
    """High link-pattern variety: almost every object is its own type."""
    return generate(SCALED_TYPES, num_objects // 4, seed)


def relabel(graph: Graph, seed: int):
    """An isomorphic copy with identifiers permuted by ``seed``.

    Complex objects trade names within their type and component
    (``p3_a_3`` <-> ``p3_a_17``) and atomic objects within their
    component, so the copy has the same shape, sizes and perfect-type
    count as the original while its names, and hence every sort order
    and tie the program breaks by name, differ.  Returns the copy and
    the renaming.
    """
    rand = random.Random(seed)
    groups = {}
    for obj in list(graph.complex) + list(graph.atomic):
        key = (obj in graph.atomic, obj.rstrip("0123456789"))
        groups.setdefault(key, []).append(obj)
    rename = {}
    for names in groups.values():
        shuffled = sorted(names)
        rand.shuffle(shuffled)
        rename.update(zip(sorted(names), shuffled))
    out = Graph()
    out.complex = [rename[o] for o in graph.complex]
    out.atomic = {rename[o]: v for o, v in graph.atomic.items()}
    out.edges = {(rename[s], rename[d], label) for s, d, label in graph.edges}
    return out, rename


def make_multi_component(num_objects: int, seed: int) -> Graph:
    """Disjoint ~250-object bounded-variety components.

    Component ``i`` is generated with seed ``seed + i``; seed 7 is the
    program's own ``make_large_multi_component``.
    """
    requested = max(num_objects // 2, 500)
    num_components = max(requested // 250, 1)
    per_copy = max(requested // num_components, 16)
    out = Graph()
    for index in range(num_components):
        part = generate(BOUNDED_TYPES, max(per_copy // 4, 4), seed + index)
        out.absorb(part, f"p{index}_")
    return out


# Each workload is one fixed base graph; the benchmark seed only renames
# it (``relabel``).  Seeding the generator itself would change the work:
# ``make_scaled``'s perfect-type count swings from 193 to 304 at 800
# objects over seeds 0-11 and 99 (at 300 objects, 118 with seed 99), and the sweep's cost grows faster than
# linearly in it; on the service graph the seed would change which kinds
# of edges the writer toggles.  Renaming keeps the work and varies the
# input.  Base seeds: 7 is ``make_large_multi_component``'s own, 99 is
# ``make_scaled``'s default.
BASES = {
    "bounded": lambda: make_multi_component(6_000, 7),
    "scaled": lambda: make_scaled(300, 99),
    "service": lambda: make_multi_component(4_000, 7),
}
WORKLOADS = tuple(BASES)


def write(workload: str, seed: int, path: str):
    """Write one run's input to ``path``; returns (base, renaming, input)."""
    base = BASES[workload]()
    graph, rename = relabel(base, seed)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(graph.oem())
    return base, rename, graph


if __name__ == "__main__":
    write(sys.argv[1], int(sys.argv[2]), sys.argv[3])
