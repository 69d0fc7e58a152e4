"""Hypothesis property tests over randomly generated checkpoint patterns.

A random CCP is generated by interpreting a list of drawn operations
(checkpoint / send / receive) with the builder; the properties checked are the
structural invariants everything else relies on:

* checkpoint-level causal precedence is a strict partial order;
* Equation (2) links ground-truth dependency vectors and causal precedence;
* every causal pair connected through messages is also a zigzag pair, and
  zigzag-cycle-free RD-trackable patterns satisfy Definition 4;
* the recovery line (Lemma 1) of an RD-trackable pattern is a valid, consistent
  line that never includes a faulty volatile state;
* the Theorem-2 obsolete set is always contained in the Theorem-1 set.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccp.builder import CCPBuilder
from repro.ccp.consistency import is_consistent_global_checkpoint
from repro.ccp.rdt import check_rdt
from repro.ccp.zigzag import ZigzagAnalysis
from repro.core.obsolete import (
    obsolete_stable_checkpoints_theorem1,
    obsolete_stable_checkpoints_theorem2,
)
from repro.recovery.recovery_line import is_valid_recovery_line, recovery_line


def _operations(num_processes: int):
    checkpoint = st.tuples(st.just("checkpoint"), st.integers(0, num_processes - 1))
    send = st.tuples(
        st.just("send"),
        st.integers(0, num_processes - 1),
        st.integers(0, num_processes - 1),
    )
    receive = st.just(("receive",))
    return st.lists(st.one_of(checkpoint, send, receive), min_size=0, max_size=30)


def _build(num_processes: int, operations) -> CCPBuilder:
    builder = CCPBuilder(num_processes)
    pending = []
    for operation in operations:
        if operation[0] == "checkpoint":
            builder.checkpoint(operation[1])
        elif operation[0] == "send":
            sender, receiver = operation[1], operation[2]
            if sender == receiver:
                continue
            pending.append(builder.send(sender, receiver))
        else:  # receive the oldest pending message, if any
            if pending:
                builder.receive(pending.pop(0))
    return builder


ccp_inputs = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), _operations(n))
)


class TestRandomCcpInvariants:
    @settings(max_examples=60, deadline=None)
    @given(ccp_inputs)
    def test_causal_precedence_is_a_strict_partial_order(self, data):
        n, operations = data
        ccp = _build(n, operations).build()
        ids = [cid for pid in ccp.processes for cid in ccp.general_ids(pid)]
        for a in ids:
            assert not ccp.causally_precedes(a, a)
            for b in ids:
                if ccp.causally_precedes(a, b):
                    assert not ccp.causally_precedes(b, a)
                    for c in ids:
                        if ccp.causally_precedes(b, c):
                            assert ccp.causally_precedes(a, c)

    @settings(max_examples=60, deadline=None)
    @given(ccp_inputs)
    def test_equation_two_on_ground_truth_vectors(self, data):
        n, operations = data
        ccp = _build(n, operations).build()
        ids = [cid for pid in ccp.processes for cid in ccp.general_ids(pid)]
        for source in ids:
            if ccp.is_volatile(source):
                continue
            for target in ids:
                if source == target:
                    continue
                dv = ccp.ground_truth_dv(target)
                assert ccp.causally_precedes(source, target) == (
                    source.index < dv[source.pid]
                )

    @settings(max_examples=40, deadline=None)
    @given(ccp_inputs)
    def test_recorded_vectors_match_ground_truth(self, data):
        n, operations = data
        builder = _build(n, operations)
        ccp = builder.build()
        for pid in ccp.processes:
            for cid in ccp.stable_ids(pid):
                assert ccp.checkpoint(cid).dependency_vector == ccp.ground_truth_dv(cid)
            assert builder.current_dv(pid) == ccp.dv(ccp.volatile_id(pid))

    @settings(max_examples=40, deadline=None)
    @given(ccp_inputs)
    def test_rdt_patterns_have_no_useless_checkpoints(self, data):
        n, operations = data
        ccp = _build(n, operations).build()
        report = check_rdt(ccp, collect_witnesses=False)
        if report.is_rdt:
            assert ZigzagAnalysis(ccp).useless_checkpoints() == ()

    @settings(max_examples=40, deadline=None)
    @given(ccp_inputs, st.integers(0, 3))
    def test_recovery_line_is_valid_on_rdt_patterns(self, data, faulty_choice):
        n, operations = data
        ccp = _build(n, operations).build()
        if not check_rdt(ccp, collect_witnesses=False).is_rdt:
            return
        faulty = faulty_choice % n
        line = recovery_line(ccp, [faulty])
        assert is_valid_recovery_line(ccp, line, [faulty])
        assert is_consistent_global_checkpoint(ccp, line)
        assert line.indices[faulty] <= ccp.last_stable(faulty)

    @settings(max_examples=40, deadline=None)
    @given(ccp_inputs)
    def test_theorem2_is_always_a_subset_of_theorem1(self, data):
        n, operations = data
        ccp = _build(n, operations).build()
        if not check_rdt(ccp, collect_witnesses=False).is_rdt:
            return
        assert obsolete_stable_checkpoints_theorem2(ccp) <= (
            obsolete_stable_checkpoints_theorem1(ccp)
        )

    @settings(max_examples=40, deadline=None)
    @given(ccp_inputs)
    def test_last_stable_checkpoints_are_never_obsolete(self, data):
        n, operations = data
        ccp = _build(n, operations).build()
        obsolete = obsolete_stable_checkpoints_theorem1(ccp)
        for pid in ccp.processes:
            assert ccp.last_stable_id(pid) not in obsolete


def _general_ids(ccp):
    return [cid for pid in ccp.processes for cid in ccp.general_ids(pid)]


def _rdt_violations_by_causal_order(ccp):
    """``check_rdt``'s violation list with event-level precedence (``CausalOrder``)."""
    return [
        (source, target)
        for source, target in ccp.zigzag.zigzag_pairs()
        if not ccp.causally_precedes(source, target)
    ]


class TestKnowledgeRowAnswers:
    """The knowledge view's single-pair, single-checkpoint and single-process
    answers against the event-level references, on RDT and non-RDT patterns."""

    @settings(max_examples=80, deadline=None)
    @given(ccp_inputs)
    def test_row_precedence_is_event_precedence(self, data):
        ccp = _build(*data).build()
        view = ccp.analysis_provider
        general = _general_ids(ccp)
        for first in general:
            for second in general:
                assert view.precedes(first, second) == ccp.causally_precedes(
                    first, second
                ), (first, second)

    @settings(max_examples=80, deadline=None)
    @given(ccp_inputs)
    def test_rdt_violations_match_a_causal_order_run(self, data):
        ccp = _build(*data).build()
        report = check_rdt(ccp)
        assert [(v.source, v.target) for v in report.violations] == (
            _rdt_violations_by_causal_order(ccp)
        )

    def test_on_the_papers_non_rdt_figures(self, figure1_without_m3_ccp, figure2_ccp):
        for ccp in (figure1_without_m3_ccp, figure2_ccp):
            view = ccp.analysis_provider
            general = _general_ids(ccp)
            assert [
                (first, second) for first in general for second in general
                if view.precedes(first, second)
            ] == [
                (first, second) for first in general for second in general
                if ccp.causally_precedes(first, second)
            ]
            report = check_rdt(ccp)
            assert not report.is_rdt
            expected = _rdt_violations_by_causal_order(ccp)
            assert [(v.source, v.target) for v in report.violations] == expected

    @settings(max_examples=80, deadline=None)
    @given(ccp_inputs)
    def test_single_checkpoint_and_single_process_answers_match_the_sets(self, data):
        ccp = _build(*data).build()
        view = ccp.analysis_provider
        required = ccp.analysis_provider.theorem1_retained()
        allowed = ccp.analysis_provider.theorem2_retained()
        for pid in ccp.processes:
            for cid in ccp.stable_ids(pid):
                assert view.theorem1_retains(cid) == (cid in required), cid
            assert view.theorem2_retained_of(pid) == {
                cid for cid in allowed if cid.pid == pid
            }, pid
