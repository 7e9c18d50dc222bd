"""Stage 1: the minimal perfect typing (Section 4).

Given a database ``D``, the algorithm:

1. builds the program ``Q_D`` with one type per complex object, whose
   rule is the object's *local picture* — one typed link per incident
   edge (outgoing to atomic -> ``->l^0``, outgoing to a complex object
   ``o_i`` -> ``->l^{t_i}``, incoming from ``o_i`` -> ``<-l^{t_i}``);
2. computes the greatest fixpoint ``M`` of ``Q_D`` on ``D``.  The
   engine runs on the bisimulation quotient of ``Q_D``
   (:func:`repro.core.fixpoint.bisimulation_quotient`), which merges
   rules that are equal up to renaming their targets to class
   representatives; the quotient is extent-exact for positive bodies,
   so every ``q:<obj>`` extent is pulled back from its class's extent.
   On bounded-variety data thousands of per-object rules collapse to a
   few hundred classes;
3. collapses extent-equivalent types (``type_i ≡ type_j`` iff
   ``M(type_i) = M(type_j)``) into equivalence classes, picks one
   representative rule per class and rewrites its targets to class
   names.

The result is *perfect* — every object fits its home type with no
defect — and *minimal* in the sense that it is the coarsest
exact-fit classification (any perfect typing refines it).

Remark 4.1 of the paper gives a pairwise test for the equivalence
(``type_i ≡ type_j`` iff ``o_j ∈ M(type_i)`` and ``o_i ∈ M(type_j)``);
we group by extent directly — same result, near-linear with hashing —
and expose the remark as :func:`equivalent_by_membership` so the test
suite can verify the two characterisations agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.fixpoint import (
    FixpointResult,
    bisimulation_quotient,
    greatest_fixpoint,
)
from repro.core.typing_program import TypedLink, TypeRule, TypingProgram
from repro.graph.database import Database, ObjectId
from repro.perf import PerfRecorder, resolve as _resolve_perf

#: Prefix of the per-object type names in ``Q_D``; chosen so generated
#: names cannot collide with the canonical ``t<i>`` class names.
_Q_PREFIX = "q:"


def object_type_name(obj: ObjectId) -> str:
    """Name of the per-object type of ``obj`` in ``Q_D``."""
    return f"{_Q_PREFIX}{obj}"


def object_of_type_name(name: str) -> ObjectId:
    """Inverse of :func:`object_type_name`."""
    return name[len(_Q_PREFIX):]


def local_rule(db: Database, obj: ObjectId) -> TypeRule:
    """The local picture of ``obj`` as a ``Q_D`` rule (step 1)."""
    body = set()
    for edge in db.out_edges(obj):
        if db.is_atomic(edge.dst):
            body.add(TypedLink.to_atomic(edge.label))
        else:
            body.add(TypedLink.outgoing(edge.label, object_type_name(edge.dst)))
    for edge in db.in_edges(obj):
        body.add(TypedLink.incoming(edge.label, object_type_name(edge.src)))
    return TypeRule(object_type_name(obj), frozenset(body))


def build_object_program(db: Database, local_rule_fn=None) -> TypingProgram:
    """The program ``Q_D``: one type per complex object.

    ``local_rule_fn`` overrides how local pictures are built — the
    Remark 2.1 sorts extension passes
    :func:`repro.core.sorts.sorted_local_rule` here.
    """
    build = local_rule_fn if local_rule_fn is not None else local_rule
    return TypingProgram(
        [build(db, obj) for obj in db.complex_objects()], check=False
    )


def equivalent_by_membership(
    fixpoint: FixpointResult, obj_i: ObjectId, obj_j: ObjectId
) -> bool:
    """Remark 4.1: ``type_i ≡ type_j`` iff each object belongs to the
    other's per-object type in the GFP of ``Q_D``."""
    return obj_j in fixpoint.members(object_type_name(obj_i)) and obj_i in (
        fixpoint.members(object_type_name(obj_j))
    )


@dataclass(frozen=True)
class PerfectTyping:
    """Result of Stage 1.

    Attributes
    ----------
    program:
        The minimal perfect typing program ``P_D`` with canonical type
        names ``t1 .. tn`` (ordered by smallest home object).
    home_type:
        Maps every complex object to its home type.
    extents:
        The GFP extents of ``P_D`` per type.  Extents may overlap —
        the program has no negation, so objects with *more* typed links
        than a rule requires also satisfy it (the paper's ODMG-style
        inheritance remark in Section 4.2).
    weights:
        Number of home objects per type — Stage 2's point weights.
    q_iterations:
        Type re-checks performed by the Stage 1 GFP (diagnostics).
        :func:`minimal_perfect_typing` iterates the bisimulation
        quotient of ``Q_D``, so this counts quotient rechecks; other
        producers (the differential maintainer, the sharded extractor)
        report their own work measure here.
    """

    program: TypingProgram
    home_type: Dict[ObjectId, str]
    extents: Dict[str, FrozenSet[ObjectId]]
    weights: Dict[str, int]
    q_iterations: int

    @property
    def num_types(self) -> int:
        """Size of the perfect typing (the "Perfect Types" Table 1 column)."""
        return len(self.program)

    def home_members(self, type_name: str) -> FrozenSet[ObjectId]:
        """Objects whose *home* is ``type_name`` (extent may be larger)."""
        return frozenset(
            obj for obj, home in self.home_type.items() if home == type_name
        )

    def assignment(self) -> Dict[ObjectId, FrozenSet[str]]:
        """Home assignment as an object -> set-of-types map."""
        return {obj: frozenset([home]) for obj, home in self.home_type.items()}

    def full_assignment(self) -> Dict[ObjectId, FrozenSet[str]]:
        """The complete GFP assignment: *every* type an object satisfies.

        Extents overlap, so an object can carry types beyond its home
        (the Section 4.2 inheritance remark).  The paper's zero-defect
        guarantee for the perfect typing holds under this assignment —
        a rule of the form ``->l^t2`` can be witnessed by a neighbour
        whose *home* is some ``t1`` but which also satisfies ``t2`` —
        while the collapsed home assignment can show a spurious deficit
        on such databases.
        """
        full: Dict[ObjectId, set] = {obj: set() for obj in self.home_type}
        for type_name, members in self.extents.items():
            for obj in members:
                full.setdefault(obj, set()).add(type_name)
        return {obj: frozenset(types) for obj, types in full.items()}

    def apply_delta(
        self,
        db: Database,
        changes,
        local_rule_fn=None,
        budget=None,
        perf: Optional[PerfRecorder] = None,
    ) -> "PerfectTyping":
        """Fold one mutation batch into this typing differentially.

        ``db`` is the database *after* the batch and ``changes`` the
        :class:`~repro.graph.database.ChangeLog` recorded while it was
        applied; the result equals ``minimal_perfect_typing(db)``.
        One-shot convenience over
        :class:`repro.core.delta.Stage1Maintainer` — it pays a full
        signature-index build per call, so callers folding repeated
        batches should hold a maintainer (or use
        :meth:`repro.core.incremental.IncrementalTyper.refresh`)
        to amortise it.
        """
        from repro.core.delta import Stage1Maintainer

        maintainer = Stage1Maintainer(db, self, local_rule_fn=local_rule_fn)
        return maintainer.apply(changes, budget=budget, perf=perf)


def minimal_perfect_typing(
    db: Database,
    local_rule_fn=None,
    perf: Optional[PerfRecorder] = None,
) -> PerfectTyping:
    """Run Stage 1 on ``db`` and return the :class:`PerfectTyping`.

    ``local_rule_fn`` optionally overrides the local-picture builder
    (used by the Remark 2.1 sorts extension).  ``perf`` threads a
    :class:`repro.perf.PerfRecorder` into the GFP engine and times the
    stage's phases (spans ``stage1.build_qd``, ``stage1.quotient``,
    ``stage1.collapse``; counters ``stage1.qd_rules`` and
    ``stage1.quotient_rules``).

    The GFP runs on the bisimulation quotient of ``Q_D`` rather than on
    ``Q_D`` itself; the quotient is exact for GFP extents (see
    :func:`repro.core.fixpoint.bisimulation_quotient`), so the result
    equals collapsing the GFP of the full ``Q_D`` in every field except
    the ``q_iterations`` work measure.

    Example
    -------
    >>> from repro.graph import DatabaseBuilder
    >>> b = DatabaseBuilder()
    >>> for i in range(3):
    ...     _ = b.attr(f"p{i}", "name", f"n{i}")
    >>> result = minimal_perfect_typing(b.build())
    >>> result.num_types
    1
    """
    perf = _resolve_perf(perf)
    build = local_rule_fn if local_rule_fn is not None else local_rule
    with perf.span("stage1.build_qd"):
        q_program = build_object_program(db, local_rule_fn=build)
    fixpoint = object_fixpoint(q_program, db, perf=perf)

    with perf.span("stage1.collapse"):
        return collapse_object_fixpoint(db, build, fixpoint)


def object_fixpoint(
    q_program: TypingProgram,
    db: Database,
    perf: Optional[PerfRecorder] = None,
) -> FixpointResult:
    """The GFP of ``Q_D``, evaluated on its bisimulation quotient.

    Extent-identical to ``greatest_fixpoint(q_program, db)`` for every
    per-object type name: the quotient is exact for positive bodies
    (see :func:`repro.core.fixpoint.bisimulation_quotient`), so each
    ``q:<obj>`` extent is its class's extent — the same frozenset, not
    a copy.  ``iterations`` counts the quotient's type rechecks.
    """
    perf = _resolve_perf(perf)
    with perf.span("stage1.quotient"):
        quotient, mapping = bisimulation_quotient(q_program)
    perf.incr("stage1.qd_rules", len(q_program))
    perf.incr("stage1.quotient_rules", len(quotient))
    reduced = greatest_fixpoint(quotient, db, perf=perf)
    return FixpointResult(
        extents={name: reduced.extents[rep] for name, rep in mapping.items()},
        iterations=reduced.iterations,
    )


def collapse_object_fixpoint(
    db: Database, build, fixpoint: FixpointResult
) -> PerfectTyping:
    """Steps 2–3: collapse extent-equivalent ``Q_D`` types into classes.

    ``fixpoint`` maps every per-object type name to its extent; besides
    Stage 1 proper, the differential maintainer
    (:class:`repro.core.delta.Stage1Maintainer`) re-enters here with
    the incrementally maintained extents, so the canonical ``t<i>``
    naming and representative-rule rewriting stay in one place."""
    # Step 2: group per-object types by extent.
    by_extent: Dict[FrozenSet[ObjectId], List[ObjectId]] = {}
    for obj in db.complex_objects():
        extent = fixpoint.members(object_type_name(obj))
        by_extent.setdefault(extent, []).append(obj)

    # Canonical class names, ordered by each class's smallest object so
    # reruns on the same data are reproducible.
    classes: List[Tuple[ObjectId, FrozenSet[ObjectId], List[ObjectId]]] = sorted(
        (min(members), extent, members) for extent, members in by_extent.items()
    )
    class_of_object: Dict[ObjectId, str] = {}
    class_extent: Dict[str, FrozenSet[ObjectId]] = {}
    representative: Dict[str, ObjectId] = {}
    for index, (leader, extent, members) in enumerate(classes, start=1):
        name = f"t{index}"
        class_extent[name] = extent
        representative[name] = leader
        for member in members:
            class_of_object[member] = name

    # Step 3: rewrite one representative rule per class.
    rename = {
        object_type_name(obj): class_name
        for obj, class_name in class_of_object.items()
    }
    rules = [
        build(db, leader).rename_targets(rename).with_name(name)
        for name, leader in representative.items()
    ]
    program = TypingProgram(rules)

    weights: Dict[str, int] = {name: 0 for name in class_extent}
    for class_name in class_of_object.values():
        weights[class_name] += 1

    return PerfectTyping(
        program=program,
        home_type=dict(class_of_object),
        extents=class_extent,
        weights=weights,
        q_iterations=fixpoint.iterations,
    )


def verify_perfect(typing: PerfectTyping, db: Database) -> bool:
    """Check that every object satisfies its home type's rule exactly.

    "Exactly" means: re-evaluating the GFP of ``P_D`` on ``db`` places
    every object in (at least) its home type.  Used by integration
    tests and the Table 1 harness as a sanity gate.
    """
    fixpoint = greatest_fixpoint(typing.program, db)
    return all(
        obj in fixpoint.members(home) for obj, home in typing.home_type.items()
    )


def signature_partition(db: Database) -> Dict[str, FrozenSet[ObjectId]]:
    """Partition complex objects by raw edge-kind signature.

    This is the *zeroth-order* approximation of the perfect typing
    (what you get by looking one step around each object without
    typing the neighbours).  The minimal perfect typing always refines
    or equals it; benchmarks report both sizes to show how much the
    fixpoint's recursive typing adds.
    """
    from repro.core.fixpoint import object_signature

    groups: Dict[FrozenSet, List[ObjectId]] = {}
    for obj in db.complex_objects():
        groups.setdefault(object_signature(db, obj), []).append(obj)
    out: Dict[str, FrozenSet[ObjectId]] = {}
    for index, (_, members) in enumerate(
        sorted(groups.items(), key=lambda kv: min(kv[1])), start=1
    ):
        out[f"s{index}"] = frozenset(members)
    return out
