"""Tests for zigzag paths, Z-paths, C-paths and useless checkpoints (Definition 3)."""

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.zigzag import ZigzagAnalysis


class TestFigure1Paths:
    """The path classifications the paper states for Figure 1."""

    def _ids(self, builder):
        return {tag: builder.message_id(tag) for tag in builder.tags()}

    def test_m1_m2_is_a_causal_path(self, figure1_ccp):
        analysis = ZigzagAnalysis(figure1_ccp)
        m1 = 0  # message ids follow send order: m1, m2, m4, m5, m3
        m2 = 1
        assert analysis.is_zigzag_sequence([m1, m2], CheckpointId(0, 0), CheckpointId(2, 2))
        assert analysis.is_causal_sequence([m1, m2])

    def test_m1_m4_is_a_causal_path(self, figure1_ccp):
        analysis = ZigzagAnalysis(figure1_ccp)
        m1, m4 = 0, 2
        assert analysis.is_zigzag_sequence([m1, m4], CheckpointId(0, 0), CheckpointId(2, 2))
        assert analysis.is_causal_sequence([m1, m4])

    def test_m5_m4_is_a_non_causal_z_path(self, figure1_ccp):
        analysis = ZigzagAnalysis(figure1_ccp)
        m4, m5 = 2, 3
        assert analysis.is_zigzag_sequence([m5, m4], CheckpointId(0, 1), CheckpointId(2, 2))
        assert not analysis.is_causal_sequence([m5, m4])

    def test_zigzag_relation_from_s1_1_to_s3_2(self, figure1_ccp):
        analysis = ZigzagAnalysis(figure1_ccp)
        assert analysis.zigzag_exists(CheckpointId(0, 1), CheckpointId(2, 2))

    def test_find_zigzag_path_returns_a_valid_witness(self, figure1_ccp):
        analysis = ZigzagAnalysis(figure1_ccp)
        path = analysis.find_zigzag_path(CheckpointId(0, 1), CheckpointId(2, 2))
        assert path is not None
        assert analysis.is_zigzag_sequence(
            path.message_ids, CheckpointId(0, 1), CheckpointId(2, 2)
        )

    def test_no_zigzag_between_concurrent_checkpoints(self, figure1_ccp):
        analysis = ZigzagAnalysis(figure1_ccp)
        assert not analysis.zigzag_exists(CheckpointId(1, 1), CheckpointId(2, 1))

    def test_no_useless_checkpoints_in_figure1(self, figure1_ccp):
        assert ZigzagAnalysis(figure1_ccp).useless_checkpoints() == []

    def test_empty_sequence_is_not_a_zigzag_path(self, figure1_ccp):
        analysis = ZigzagAnalysis(figure1_ccp)
        assert not analysis.is_zigzag_sequence([], CheckpointId(0, 0), CheckpointId(1, 1))


class TestFigure2Cycles:
    """Figure 2: crossing ping-pong messages create zigzag cycles."""

    def test_non_initial_checkpoints_are_useless(self, figure2_ccp):
        useless = set(ZigzagAnalysis(figure2_ccp).useless_checkpoints())
        assert CheckpointId(0, 1) in useless
        assert CheckpointId(0, 2) in useless
        assert CheckpointId(1, 1) in useless

    def test_initial_checkpoints_are_not_useless(self, figure2_ccp):
        useless = set(ZigzagAnalysis(figure2_ccp).useless_checkpoints())
        assert CheckpointId(0, 0) not in useless
        assert CheckpointId(1, 0) not in useless

    def test_z_cycle_query(self, figure2_ccp):
        analysis = ZigzagAnalysis(figure2_ccp)
        assert analysis.has_zigzag_cycle(CheckpointId(0, 1))
        assert not analysis.has_zigzag_cycle(CheckpointId(0, 0))


class TestZigzagConsistencyWithCausality:
    def test_causal_precedence_implies_zigzag_when_messages_exist(self, figure1_ccp):
        """Every C-path is in particular a zigzag path (for message-connected pairs)."""
        analysis = ZigzagAnalysis(figure1_ccp)
        pairs = analysis.zigzag_pairs()
        # zigzag_pairs must at least contain all message-induced causal pairs
        assert (CheckpointId(0, 0), CheckpointId(1, 1)) in pairs
        assert (CheckpointId(0, 0), CheckpointId(2, 2)) in pairs

    def test_zigzag_pairs_matches_pointwise_queries(self, figure1_ccp):
        analysis = ZigzagAnalysis(figure1_ccp)
        pairs = set(analysis.zigzag_pairs())
        all_ids = [
            cid
            for pid in figure1_ccp.processes
            for cid in figure1_ccp.general_ids(pid)
        ]
        for source in all_ids:
            for target in all_ids:
                assert ((source, target) in pairs) == analysis.zigzag_exists(source, target)


def _brute_force_cycle_sizes(ccp):
    """Non-trivial component sizes of the interval graph by mutual reachability.

    Independent of the kernel's Tarjan pass: one node per checkpoint
    interval ``(p, gamma)``, a chain edge to ``(p, gamma + 1)`` and one edge
    per delivered message from its send interval to its receive interval;
    two nodes share a component iff each reaches the other.
    """
    nodes = [
        (pid, gamma)
        for pid in ccp.processes
        for gamma in range(ccp.volatile_index(pid) + 1)
    ]
    successors = {node: set() for node in nodes}
    for pid, gamma in nodes:
        if gamma < ccp.volatile_index(pid):
            successors[(pid, gamma)].add((pid, gamma + 1))
    for message in ccp.messages():
        successors[(message.sender, message.send_interval)].add(
            (message.receiver, message.receive_interval)
        )

    def reach(start):
        seen = {start}
        stack = [start]
        while stack:
            for succ in successors[stack.pop()]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    reachable = {node: reach(node) for node in nodes}
    sizes = []
    assigned = set()
    for node in nodes:
        if node in assigned:
            continue
        component = {other for other in reachable[node] if node in reachable[other]}
        assigned |= component
        if len(component) > 1:
            sizes.append(len(component))
    return sorted(sizes)


class TestCycleComponents:
    """The condensation the fuzzer's ``scc`` coverage feature reads."""

    def test_figure2_domino_is_one_component_of_five(self, figure2_ccp):
        sizes = ZigzagAnalysis(figure2_ccp).cycle_component_sizes()
        assert sizes == [5] == _brute_force_cycle_sizes(figure2_ccp)

    def test_matches_mutual_reachability_on_random_patterns(self):
        from repro.scenarios.random_patterns import random_ccp

        cyclic = 0
        for seed in range(50):
            ccp = random_ccp(seed)
            sizes = sorted(ZigzagAnalysis(ccp).cycle_component_sizes())
            assert sizes == _brute_force_cycle_sizes(ccp), seed
            cyclic += bool(sizes)
        assert cyclic >= 40  # the seeds exercise cycles, not only DAGs

    def test_acyclic_pattern_has_none(self, figure1_ccp):
        assert ZigzagAnalysis(figure1_ccp).cycle_component_sizes() == []
        assert _brute_force_cycle_sizes(figure1_ccp) == []
