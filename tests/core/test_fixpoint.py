"""Unit tests for the greatest/least fixpoint engine."""

import pytest

from repro.core.fixpoint import (
    bisimulation_quotient,
    explain_membership,
    greatest_fixpoint,
    greatest_fixpoint_naive,
    greatest_fixpoint_rescan,
    least_fixpoint,
    object_signature,
)
from repro.core.notation import parse_program
from repro.core.perfect import build_object_program, minimal_perfect_typing
from repro.core.typing_program import (
    ATOMIC,
    Direction,
    TypedLink,
    TypeRule,
    TypingProgram,
    make_rule,
)
from repro.graph.builder import DatabaseBuilder
from repro.graph.database import Database
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


class TestPaperSemantics:
    def test_p0_greatest_fixpoint(self, figure2_db, p0_program):
        """Section 2: GFP of P0 is {person(g), person(j), firm(a), firm(m)}."""
        result = greatest_fixpoint(p0_program, figure2_db)
        assert result.members("person") == {"g", "j"}
        assert result.members("firm") == {"a", "m"}

    def test_p0_least_fixpoint_classifies_nothing(self, figure2_db, p0_program):
        """Section 2: "a least fixpoint semantics would fail to classify
        any object" for the recursive P0."""
        result = least_fixpoint(p0_program, figure2_db)
        assert result.members("person") == frozenset()
        assert result.members("firm") == frozenset()

    def test_nonrecursive_gfp_equals_lfp(self, regular_people_db):
        """Section 4.1: for non-recursive programs GFP == LFP."""
        program = TypingProgram([make_rule("person", atomic=["name", "email"])])
        assert not program.is_recursive()
        gfp = greatest_fixpoint(program, regular_people_db)
        lfp = least_fixpoint(program, regular_people_db)
        assert gfp.extents == lfp.extents
        assert len(gfp.members("person")) == 10

    def test_atomic_objects_never_typed(self, figure2_db, p0_program):
        result = greatest_fixpoint(p0_program, figure2_db)
        for members in result.extents.values():
            assert all(figure2_db.is_complex(o) for o in members)


class TestEngineAgreement:
    def test_optimised_matches_naive(self, figure2_db, p0_program):
        fast = greatest_fixpoint(p0_program, figure2_db)
        slow = greatest_fixpoint_naive(p0_program, figure2_db)
        assert fast.extents == slow.extents

    def test_agreement_on_figure4(self, figure4_db):
        program = parse_program(
            """
            t1 = ->a^t2
            t2 = ->b^0, <-a^t1
            t3 = ->b^0, ->c^0, <-a^t1
            """
        )
        fast = greatest_fixpoint(program, figure4_db)
        slow = greatest_fixpoint_naive(program, figure4_db)
        assert fast.extents == slow.extents
        assert fast.members("t2") == {"o2", "o3", "o4"}
        assert fast.members("t3") == {"o4"}

    def test_agreement_on_self_recursive(self):
        db = (
            DatabaseBuilder()
            .link("a", "b", "next")
            .link("b", "c", "next")
            .link("c", "a", "next")  # cycle
            .link("x", "y", "next")  # chain that dies out
            .build()
        )
        program = TypingProgram([make_rule("node", outgoing=[("next", "node")])])
        fast = greatest_fixpoint(program, db)
        slow = greatest_fixpoint_naive(program, db)
        assert fast.extents == slow.extents
        # Only the cycle members can be 'node' forever.
        assert fast.members("node") == {"a", "b", "c"}


class TestMechanics:
    def test_empty_body_contains_all_complex(self, figure2_db):
        program = TypingProgram([make_rule("anything")])
        result = greatest_fixpoint(program, figure2_db)
        assert result.members("anything") == set(figure2_db.complex_objects())

    def test_empty_program(self, figure2_db):
        result = greatest_fixpoint(TypingProgram.empty(), figure2_db)
        assert result.extents == {}

    def test_restrict_to(self, figure2_db, p0_program):
        result = greatest_fixpoint(
            p0_program, figure2_db, restrict_to={"person": ["g"]}
        )
        assert result.members("person") == {"g"}
        # The restriction cascades: a is managed by j, who is no longer
        # a person, so a drops out of firm; m (managed by g) survives.
        assert result.members("firm") == {"m"}

    def test_types_of_and_assignment(self, figure2_db, p0_program):
        result = greatest_fixpoint(p0_program, figure2_db)
        assert result.types_of("g") == {"person"}
        assignment = result.assignment()
        assert assignment["m"] == {"firm"}
        assert "gn" not in assignment  # atomic

    def test_types_of_and_assignment_overlapping_extents(self):
        """Extents overlap (no negation: a richer object satisfies the
        poorer rule too); ``types_of`` and ``assignment`` must report
        every containing type, and the two views must invert exactly."""
        db = (
            DatabaseBuilder()
            .attr("rich", "name", "n1")
            .attr("rich", "email", "e1")
            .attr("poor", "name", "n2")
            .build()
        )
        program = parse_program("t1 = ->name^0\nt2 = ->name^0, ->email^0")
        result = greatest_fixpoint(program, db)
        assert result.members("t1") == {"rich", "poor"}
        assert result.members("t2") == {"rich"}
        assert result.types_of("rich") == {"t1", "t2"}
        assert result.types_of("poor") == {"t1"}
        assert result.types_of("n1") == frozenset()  # atomic
        assignment = result.assignment()
        assert assignment == {
            "rich": frozenset({"t1", "t2"}),
            "poor": frozenset({"t1"}),
        }
        # The inverted map and the extents are two views of one relation.
        for name in program.type_names():
            assert result.members(name) == {
                obj for obj, types in assignment.items() if name in types
            }

    def test_nonempty_types(self, figure2_db):
        program = parse_program("ghost = ->no-such-label^0\nreal = ->name^0")
        result = greatest_fixpoint(program, figure2_db)
        assert result.nonempty_types() == {"real"}

    def test_object_signature(self, figure2_db):
        sig = object_signature(figure2_db, "g")
        assert (Direction.OUT, "name", "a") in sig
        assert (Direction.OUT, "name", "a:string") in sig  # sorted kind
        assert (Direction.OUT, "is-manager-of", "c") in sig
        assert (Direction.IN, "is-managed-by", "c") in sig


class TestPerfCounters:
    def test_gfp_records_work_counters(self, figure2_db, p0_program):
        perf = PerfRecorder()
        result = greatest_fixpoint(p0_program, figure2_db, perf=perf)
        assert result.members("person") == {"g", "j"}
        # Counts *distinct* raw signatures (g/j share one, a/m another).
        assert 0 < perf.counter("gfp.signatures") <= figure2_db.num_complex
        assert perf.counter("gfp.signatures") == 2
        # Both types verified at least once, every member body-checked.
        assert perf.counter("gfp.type_rechecks") >= 2
        assert perf.counter("gfp.object_checks") > 0
        assert perf.counter("gfp.satisfaction_checks") > 0
        assert perf.elapsed("gfp.iterate") >= 0.0

    def test_dirty_tracking_does_less_work_than_rescan(self):
        """On a deletion cascade the dirty-tracking engine re-examines
        only objects that lost a witness; the rescan engine re-walks
        whole extents.  Counters are comparable by construction (same
        names, same meaning)."""
        builder = DatabaseBuilder()
        for i in range(20):
            builder.link(f"n{i}", f"n{i + 1}", "next")
        db = builder.build()
        program = TypingProgram([make_rule("node", outgoing=[("next", "node")])])
        fast_perf, rescan_perf = PerfRecorder(), PerfRecorder()
        fast = greatest_fixpoint(program, db, perf=fast_perf)
        rescan = greatest_fixpoint_rescan(program, db, perf=rescan_perf)
        assert fast.extents == rescan.extents
        assert fast.members("node") == frozenset()  # chain dies out
        fast_checks = fast_perf.counter("gfp.satisfaction_checks")
        rescan_checks = rescan_perf.counter("gfp.satisfaction_checks")
        assert 0 < fast_checks < rescan_checks

    def test_null_recorder_default_records_nothing(self, figure2_db, p0_program):
        from repro.perf import NULL_RECORDER

        greatest_fixpoint(p0_program, figure2_db)
        assert NULL_RECORDER.to_dict() == {
            "counters": {}, "peaks": {}, "timers": {},
        }


class TestBisimulationQuotient:
    def test_quotient_preserves_extents(self, multi_db):
        combined = minimal_perfect_typing(multi_db).program
        quotient, mapping = bisimulation_quotient(combined)
        assert set(mapping) == set(combined.type_names())
        assert set(mapping.values()) == set(quotient.type_names())
        full = greatest_fixpoint(combined, multi_db)
        reduced = greatest_fixpoint(quotient, multi_db)
        for name in combined.type_names():
            assert full.members(name) == reduced.members(mapping[name])

    def test_object_program_quotient_is_exact_and_smaller(self, multi_db):
        # Stage 1's use: Q_D of a graph with a duplicated component.
        q_program = build_object_program(multi_db)
        quotient, mapping = bisimulation_quotient(q_program)
        assert len(quotient) < len(q_program)
        full = greatest_fixpoint(q_program, multi_db)
        reduced = greatest_fixpoint(quotient, multi_db)
        for name in q_program.type_names():
            assert full.members(name) == reduced.members(mapping[name])

    def test_bisimilar_rules_collapse(self):
        # Structurally identical rules under different names — the
        # shape a shard-prefixed combined program produces when the
        # same component appears in two shards.
        leaf_a = TypeRule(
            "leaf_a", frozenset({TypedLink(Direction.OUT, "name", ATOMIC)})
        )
        leaf_b = TypeRule(
            "leaf_b", frozenset({TypedLink(Direction.OUT, "name", ATOMIC)})
        )
        root = TypeRule(
            "root",
            frozenset(
                {
                    TypedLink(Direction.OUT, "child", "leaf_a"),
                    TypedLink(Direction.OUT, "child", "leaf_b"),
                }
            ),
        )
        program = TypingProgram([leaf_a, leaf_b, root])
        quotient, mapping = bisimulation_quotient(program)
        assert mapping["leaf_a"] == mapping["leaf_b"]
        assert mapping["root"] == "root"
        assert len(quotient) == 2

    def test_empty_program(self):
        quotient, mapping = bisimulation_quotient(TypingProgram([]))
        assert len(quotient) == 0
        assert mapping == {}


class TestExplanations:
    def test_explain_witnesses(self, figure2_db, p0_program):
        result = greatest_fixpoint(p0_program, figure2_db)
        supports = explain_membership(
            p0_program, figure2_db, result.extents, "g", "person"
        )
        by_label = {s.link.label: s.witnesses for s in supports}
        assert by_label["is-manager-of"] == ("m",)
        assert by_label["name"] == ("gn",)

    def test_explain_missing_support(self, figure2_db, p0_program):
        # Pretend firms do not exist: person's manager link has no witness.
        fake_extents = {"person": frozenset({"g"}), "firm": frozenset()}
        supports = explain_membership(
            p0_program, figure2_db, fake_extents, "g", "person"
        )
        by_label = {s.link.label: s.witnesses for s in supports}
        assert by_label["is-manager-of"] == ()
