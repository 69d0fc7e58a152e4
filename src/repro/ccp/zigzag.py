"""Zigzag paths, Z-paths, C-paths and useless checkpoints (Netzer & Xu).

Definition 3 of the paper: a sequence of messages ``[m1, ..., mk]`` is a
*zigzag path* from ``c_a^alpha`` to ``c_b^beta`` iff

(i)   ``p_a`` sends ``m1`` after ``c_a^alpha``;
(ii)  if ``m_i`` is received by ``p_c``, then ``m_{i+1}`` is sent by ``p_c`` in
      the same or a later checkpoint interval;
(iii) ``p_b`` receives ``mk`` before ``c_b^beta``.

A zigzag path is *causal* (a C-path) if the receipt of each message but the
last causally precedes the send of the next one; otherwise it is a
(non-causal) Z-path.  A zigzag path from a checkpoint to itself is a *zigzag
cycle* and renders the checkpoint *useless*.

Two implementations of the relation are provided:

* :class:`ZigzagAnalysis` — the production kernel.  It condenses the relation
  to the *interval level*: one node per checkpoint interval ``I_p^gamma``,
  a chain edge ``(p, gamma) -> (p, gamma+1)`` (a later interval can use a
  subset of the messages an earlier one can) and one edge
  ``(sender, send_interval) -> (receiver, receive_interval)`` per delivered
  message.  Strongly connected components of this graph are exactly the
  zigzag cycles; condensing them yields a DAG over which *arrival closures*
  (the set of interval nodes that some hand-off chain can be received in) are
  propagated level by level: components are batched into reverse-topological
  *levels* (a component's level is one more than the maximum level of the
  components it reaches directly), each component ORs the closures of its
  deduplicated successor components exactly once, and whole levels are
  processed as a block, one Python big-int OR per condensation edge.  Every
  relation query then becomes a couple of bit operations over the precomputed
  closures.
* :class:`BruteForceZigzagAnalysis` — the original message-level BFS over the
  hand-off graph (edge ``m -> m'`` iff ``m'`` is sent by the receiver of
  ``m`` in the same or a later interval).  It is kept as the executable
  specification: property tests assert the kernel agrees with it query for
  query, and the perf benchmark measures the kernel against it.

Both classes share the Definition-3 sequence checkers and the witness-path
search through :class:`_ZigzagBase`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.causality.events import Message
from repro.ccp.checkpoint import CheckpointId
from repro.ccp.pattern import CCP


@dataclass(frozen=True, slots=True)
class ZigzagPath:
    """A concrete zigzag path between two checkpoints.

    ``message_ids`` lists the messages in order; ``causal`` tells whether the
    path is a C-path (every hand-off is causal) or a Z-path.
    """

    source: CheckpointId
    target: CheckpointId
    message_ids: Tuple[int, ...]
    causal: bool

    def __len__(self) -> int:
        return len(self.message_ids)


class _ZigzagBase:
    """Message bookkeeping and Definition-3 checkers shared by both engines."""

    def __init__(self, ccp: CCP) -> None:
        self._ccp = ccp
        self._messages: Dict[int, Message] = {
            m.message_id: m for m in ccp.messages()
        }
        # Per-sender message lists sorted by send interval: _start_messages and
        # the hand-off successor computation are range queries on these.
        self._by_sender: Dict[int, List[Message]] = {}
        for message in self._messages.values():
            self._by_sender.setdefault(message.sender, []).append(message)
        for sent in self._by_sender.values():
            sent.sort(key=lambda m: m.send_interval)
        self._send_keys: Dict[int, List[int]] = {
            pid: [m.send_interval for m in sent]
            for pid, sent in self._by_sender.items()
        }
        self._successors_cache: Optional[Dict[int, List[int]]] = None

    @property
    def ccp(self) -> CCP:
        """The pattern this analysis was built over."""
        return self._ccp

    # ------------------------------------------------------------------
    # Message graph (lazy; only needed for witness-path search)
    # ------------------------------------------------------------------
    def _sent_at_or_after(self, pid: int, interval: int) -> List[Message]:
        """Messages sent by ``pid`` in interval ``interval`` or later."""
        sent = self._by_sender.get(pid)
        if not sent:
            return []
        cut = bisect_left(self._send_keys[pid], interval)
        return sent[cut:]

    @property
    def _successors(self) -> Dict[int, List[int]]:
        """The message hand-off graph: ``m -> m'`` iff condition (ii) holds."""
        if self._successors_cache is None:
            successors: Dict[int, List[int]] = {}
            for message in self._messages.values():
                successors[message.message_id] = [
                    candidate.message_id
                    for candidate in self._sent_at_or_after(
                        message.receiver, message.receive_interval
                    )
                    if candidate.message_id != message.message_id
                ]
            self._successors_cache = successors
        return self._successors_cache

    def _start_messages(self, source: CheckpointId) -> List[int]:
        """Messages sent by the source process after ``source`` (condition i)."""
        return [
            m.message_id
            for m in self._sent_at_or_after(source.pid, source.index + 1)
        ]

    def _is_end_message(self, message_id: int, target: CheckpointId) -> bool:
        """Condition (iii): received by the target process before the target checkpoint."""
        message = self._messages[message_id]
        return message.receiver == target.pid and message.receive_interval <= target.index

    # ------------------------------------------------------------------
    # Relation queries (engine-specific)
    # ------------------------------------------------------------------
    def zigzag_exists(self, source: CheckpointId, target: CheckpointId) -> bool:
        """True iff some zigzag path connects ``source`` to ``target`` (``source ~> target``)."""
        raise NotImplementedError

    def zigzag_pairs(self) -> List[Tuple[CheckpointId, CheckpointId]]:
        """All ordered pairs ``(c, c')`` with a zigzag path from ``c`` to ``c'``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Witness paths
    # ------------------------------------------------------------------
    def find_zigzag_path(
        self, source: CheckpointId, target: CheckpointId
    ) -> Optional[ZigzagPath]:
        """A concrete (shortest) zigzag path from ``source`` to ``target``, if any."""
        best: Optional[List[int]] = None
        for start in self._start_messages(source):
            path = self._shortest_to_end(start, target)
            if path is not None and (best is None or len(path) < len(best)):
                best = path
        if best is None:
            return None
        return ZigzagPath(
            source=source,
            target=target,
            message_ids=tuple(best),
            causal=self.is_causal_sequence(best),
        )

    def _shortest_to_end(self, start: int, target: CheckpointId) -> Optional[List[int]]:
        parents: Dict[int, Optional[int]] = {start: None}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            if self._is_end_message(current, target):
                path: List[int] = []
                node: Optional[int] = current
                while node is not None:
                    path.append(node)
                    node = parents[node]
                return list(reversed(path))
            for succ in self._successors[current]:
                if succ not in parents:
                    parents[succ] = current
                    queue.append(succ)
        return None

    # ------------------------------------------------------------------
    # Path classification (Definition 3 checker)
    # ------------------------------------------------------------------
    def is_zigzag_sequence(
        self,
        message_ids: Sequence[int],
        source: CheckpointId,
        target: CheckpointId,
    ) -> bool:
        """Check a concrete message sequence against Definition 3."""
        if not message_ids:
            return False
        messages = [self._messages[mid] for mid in message_ids]
        first, last = messages[0], messages[-1]
        if first.sender != source.pid or first.send_interval < source.index + 1:
            return False
        if last.receiver != target.pid or last.receive_interval > target.index:
            return False
        for current, nxt in zip(messages, messages[1:]):
            if nxt.sender != current.receiver:
                return False
            if nxt.send_interval < current.receive_interval:
                return False
        return True

    def is_causal_sequence(self, message_ids: Sequence[int]) -> bool:
        """True iff each receipt causally precedes the next send (C-path hand-offs)."""
        messages = [self._messages[mid] for mid in message_ids]
        for current, nxt in zip(messages, messages[1:]):
            if nxt.sender != current.receiver:
                return False
            if nxt.send_seq <= current.receive_seq:
                return False
        return True

    # ------------------------------------------------------------------
    # Cycles and useless checkpoints
    # ------------------------------------------------------------------
    def has_zigzag_cycle(self, checkpoint: CheckpointId) -> bool:
        """True iff a zigzag path connects ``checkpoint`` to itself (Z-cycle)."""
        return self.zigzag_exists(checkpoint, checkpoint)

    def useless_checkpoints(self) -> List[CheckpointId]:
        """All checkpoints on a zigzag cycle (in no consistent global checkpoint)."""
        return [
            cid
            for pid in self._ccp.processes
            for cid in self._ccp.general_ids(pid)
            if self.has_zigzag_cycle(cid)
        ]


class ZigzagAnalysis(_ZigzagBase):
    """Bitset zigzag kernel: interval condensation + blocked reachability.

    Construction is ``O(N + M)`` graph building plus one SCC pass and one
    bitset OR per condensation edge, where ``N`` is the number of
    checkpoint intervals and ``M`` the number of delivered messages.
    Components are grouped into reverse-topological levels and each level is
    propagated as a block.  After construction:

    * :meth:`zigzag_exists` is one AND over two precomputed big ints;
    * :meth:`useless_checkpoints` is one bit test per general checkpoint;
    * :meth:`zigzag_pairs` extracts, per (source, process) pair, the lowest
      arrival bit of the closure;
    * :meth:`cycle_component_sizes` reads the condensation itself.
    """

    def __init__(self, ccp: CCP) -> None:
        super().__init__(ccp)
        # Node layout: node (p, gamma) at bit offset[p] + gamma represents
        # the hand-off state "a message sent by p in interval >= gamma is
        # usable"; gamma ranges over 0..volatile_index(p) — every event of p
        # lives in one of those intervals.
        self._volatile: List[int] = [
            ccp.volatile_index(pid) for pid in ccp.processes
        ]
        self._offsets: List[int] = []
        total = 0
        for pid in ccp.processes:
            self._offsets.append(total)
            total += self._volatile[pid] + 1
        self._num_nodes = total
        self._closures: List[int] = self._compute_closures()

    # ------------------------------------------------------------------
    # Kernel construction
    # ------------------------------------------------------------------
    def _node(self, pid: int, interval: int) -> int:
        return self._offsets[pid] + interval

    def _compute_closures(self) -> List[int]:
        """Arrival closure of every interval node, as one big int per node.

        Bit ``node(r, rho)`` is set in ``closure[u]`` iff some hand-off chain
        whose first message is sendable from state ``u`` ends with a message
        received by ``r`` in interval ``rho``.  Closures are computed once per
        strongly connected component.  Tarjan's algorithm emits components in
        reverse topological order (every component after everything it
        reaches), which makes levelling a single forward pass: a component's
        level is one more than the maximum level of its (deduplicated)
        successor components.  Levels are then propagated as blocks, sink
        level first: one big-int OR per condensation edge.
        """
        n = self._num_nodes
        # Edges: chain (p, g) -> (p, g+1); message (sender, sigma) -> (receiver, rho).
        chain_next: List[int] = [-1] * n
        for pid in self._ccp.processes:
            for gamma in range(self._volatile[pid]):
                chain_next[self._node(pid, gamma)] = self._node(pid, gamma + 1)
        message_edges: List[List[int]] = [[] for _ in range(n)]
        for message in self._messages.values():
            source = self._node(message.sender, message.send_interval)
            target = self._node(message.receiver, message.receive_interval)
            message_edges[source].append(target)

        def edges_of(u: int) -> List[int]:
            succ = message_edges[u]
            nxt = chain_next[u]
            return succ if nxt < 0 else succ + [nxt]

        component, components = self._tarjan_scc(edges_of, n)
        self._components = components
        num_comps = len(components)

        # Condense: per-component direct arrival bits (message-edge targets,
        # including intra-component ones) and deduplicated successor
        # components, then assign reverse-topological levels.
        comp_targets: List[List[int]] = [[] for _ in range(num_comps)]
        comp_succs: List[List[int]] = [[] for _ in range(num_comps)]
        level: List[int] = [0] * num_comps
        for comp_id, members in enumerate(components):
            succ_set: Set[int] = set()
            targets = comp_targets[comp_id]
            for u in members:
                for v in message_edges[u]:
                    targets.append(v)
                    if component[v] != comp_id:
                        succ_set.add(component[v])
                nxt = chain_next[u]
                if nxt >= 0 and component[nxt] != comp_id:
                    succ_set.add(component[nxt])
            succs = sorted(succ_set)
            comp_succs[comp_id] = succs
            if succs:
                level[comp_id] = 1 + max(level[s] for s in succs)
        levels: List[List[int]] = [[] for _ in range(max(level, default=-1) + 1)]
        for comp_id, lv in enumerate(level):
            levels[lv].append(comp_id)

        comp_closure: List[int] = [0] * num_comps
        for level_comps in levels:
            for comp_id in level_comps:
                bits = 0
                for v in comp_targets[comp_id]:
                    bits |= 1 << v
                for s in comp_succs[comp_id]:
                    bits |= comp_closure[s]
                comp_closure[comp_id] = bits

        closures = [0] * n
        for comp_id, members in enumerate(components):
            bits = comp_closure[comp_id]
            for u in members:
                closures[u] = bits
        return closures

    @staticmethod
    def _tarjan_scc(edges_of, n: int) -> Tuple[List[int], List[List[int]]]:
        """Iterative Tarjan SCC.

        Returns ``(component, components)`` where ``components`` lists SCCs in
        reverse topological order of the condensation (every SCC appears after
        all SCCs it can reach).
        """
        index = [-1] * n
        lowlink = [0] * n
        on_stack = [False] * n
        component = [-1] * n
        components: List[List[int]] = []
        stack: List[int] = []
        counter = 0
        for root in range(n):
            if index[root] != -1:
                continue
            work: List[Tuple[int, int, List[int]]] = [(root, 0, edges_of(root))]
            while work:
                node, edge_pos, succ = work[-1]
                if edge_pos == 0:
                    index[node] = lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack[node] = True
                advanced = False
                while edge_pos < len(succ):
                    child = succ[edge_pos]
                    edge_pos += 1
                    if index[child] == -1:
                        work[-1] = (node, edge_pos, succ)
                        work.append((child, 0, edges_of(child)))
                        advanced = True
                        break
                    if on_stack[child]:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                work.pop()
                if lowlink[node] == index[node]:
                    members: List[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component[member] = len(components)
                        members.append(member)
                        if member == node:
                            break
                    components.append(members)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return component, components

    # ------------------------------------------------------------------
    # Bit helpers
    # ------------------------------------------------------------------
    def _closure_of(self, source: CheckpointId) -> int:
        """Arrival closure of the start state of ``source`` (condition i)."""
        if source.pid not in self._ccp.processes:
            return 0
        start = max(source.index + 1, 0)
        if start > self._volatile[source.pid]:
            return 0
        return self._closures[self._node(source.pid, start)]

    def _end_mask(self, target: CheckpointId) -> int:
        """Bits of every arrival node satisfying condition (iii) for ``target``."""
        if target.pid not in self._ccp.processes:
            return 0
        width = min(target.index, self._volatile[target.pid]) + 1
        if width <= 0:
            return 0
        return ((1 << width) - 1) << self._offsets[target.pid]

    def _first_arrival(self, closure: int, pid: int) -> Optional[int]:
        """Earliest interval of ``pid`` with an arrival bit set in ``closure``."""
        segment = (closure >> self._offsets[pid]) & ((1 << (self._volatile[pid] + 1)) - 1)
        if not segment:
            return None
        return (segment & -segment).bit_length() - 1

    # ------------------------------------------------------------------
    # Relation queries
    # ------------------------------------------------------------------
    def zigzag_exists(self, source: CheckpointId, target: CheckpointId) -> bool:
        """True iff some zigzag path connects ``source`` to ``target`` (``source ~> target``)."""
        return bool(self._closure_of(source) & self._end_mask(target))

    def cycle_component_sizes(self) -> List[int]:
        """Sizes of the interval graph's strongly connected components with
        more than one member, in Tarjan's emission order.

        Interval node ``(p, gamma + 1)`` is the rollback-dependency-graph
        node of checkpoint ``c_p^gamma`` (the interval that checkpoint
        starts), and chain and message edges match one for one, so these are
        also the R-graph's cyclic components.
        """
        return [len(members) for members in self._components if len(members) > 1]

    def zigzag_pairs(self) -> List[Tuple[CheckpointId, CheckpointId]]:
        """All ordered pairs ``(c, c')`` with a zigzag path from ``c`` to ``c'``."""
        pairs: List[Tuple[CheckpointId, CheckpointId]] = []
        all_ids = [
            cid for pid in self._ccp.processes for cid in self._ccp.general_ids(pid)
        ]
        for source in all_ids:
            closure = self._closure_of(source)
            if not closure:
                continue
            for pid in self._ccp.processes:
                # The lowest arrival bit gives the earliest interval some chain
                # can be received in; every checkpoint at or after it is a target.
                first = self._first_arrival(closure, pid)
                if first is None:
                    continue
                pairs.extend(
                    (source, CheckpointId(pid, beta))
                    for beta in range(first, self._volatile[pid] + 1)
                )
        return pairs


class BruteForceZigzagAnalysis(_ZigzagBase):
    """Reference implementation: message-level BFS over the hand-off graph.

    This is the pre-kernel algorithm, kept as the executable specification the
    bitset kernel is property-tested and benchmarked against.  Do not use it
    on large patterns: reachability is recomputed per start message and the
    hand-off graph alone is quadratic in the number of messages.
    """

    def __init__(self, ccp: CCP) -> None:
        super().__init__(ccp)
        self._reachable_cache: Dict[int, FrozenSet[int]] = {}

    def _reachable(self, message_id: int) -> FrozenSet[int]:
        """Messages reachable from ``message_id`` in the hand-off graph (incl. itself)."""
        cached = self._reachable_cache.get(message_id)
        if cached is not None:
            return cached
        seen: Set[int] = {message_id}
        stack = [message_id]
        while stack:
            current = stack.pop()
            for succ in self._successors[current]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        result = frozenset(seen)
        self._reachable_cache[message_id] = result
        return result

    def zigzag_exists(self, source: CheckpointId, target: CheckpointId) -> bool:
        """True iff some zigzag path connects ``source`` to ``target`` (``source ~> target``)."""
        for start in self._start_messages(source):
            for reachable in self._reachable(start):
                if self._is_end_message(reachable, target):
                    return True
        return False

    def zigzag_pairs(self) -> List[Tuple[CheckpointId, CheckpointId]]:
        """All ordered pairs ``(c, c')`` with a zigzag path from ``c`` to ``c'``."""
        pairs: List[Tuple[CheckpointId, CheckpointId]] = []
        all_ids = [
            cid for pid in self._ccp.processes for cid in self._ccp.general_ids(pid)
        ]
        for source in all_ids:
            starts = self._start_messages(source)
            if not starts:
                continue
            reachable: Set[int] = set()
            for start in starts:
                reachable |= self._reachable(start)
            for target in all_ids:
                if any(self._is_end_message(mid, target) for mid in reachable):
                    pairs.append((source, target))
        return pairs
