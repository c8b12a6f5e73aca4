"""The constraint digraph the Def. 3 audit reduces 1-copy-SI to.

``si/onecopy.py::KeyedAudit`` (fed offline by ``one_copy_report()`` and
online by ``obs/monitor.py``) builds a digraph over begin/commit events
and asks two questions of it: is there a cycle (a counterexample), and
if not, which topological order is the witness schedule.  Nodes and each node's successors are kept in
insertion order, so both answers are deterministic for a given
sequence of ``add_edge`` calls.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Optional


class DiGraph:
    """A directed graph as a dict of dicts: node -> {successor: None}."""

    __slots__ = ("_succ",)

    def __init__(self) -> None:
        self._succ: dict[Hashable, dict[Hashable, None]] = {}

    def add_edge(self, source: Hashable, target: Hashable) -> None:
        succ = self._succ
        if source not in succ:
            succ[source] = {}
        if target not in succ:
            succ[target] = {}
        succ[source][target] = None

    def find_cycle(self) -> Optional[list[tuple[Hashable, Hashable]]]:
        """The edges of the first cycle a depth-first search closes, or
        ``None`` if the graph is acyclic.

        The search starts from each unexplored node in insertion order
        and follows successors in insertion order; the cycle is returned
        from the node the closing edge points back to.
        """
        succ = self._succ
        explored: set = set()
        for root in succ:
            if root in explored:
                continue
            path = [root]
            on_path = {root: 0}
            stack = [iter(succ[root])]
            while stack:
                for child in stack[-1]:
                    if child in on_path:
                        nodes = path[on_path[child]:]
                        return list(zip(nodes, nodes[1:] + [child]))
                    if child not in explored:
                        on_path[child] = len(path)
                        path.append(child)
                        stack.append(iter(succ[child]))
                        break
                else:
                    stack.pop()
                    node = path.pop()
                    del on_path[node]
                    explored.add(node)
        return None

    def topological_order(self, key: Callable[[Hashable], object] = str) -> list:
        """Kahn's algorithm, always emitting the ready node that is
        smallest by ``key`` (insertion order breaks ties).  Nodes on or
        behind a cycle are never ready, so they are missing."""
        succ = self._succ
        indegree = dict.fromkeys(succ, 0)
        for targets in succ.values():
            for target in targets:
                indegree[target] += 1
        rank = {node: index for index, node in enumerate(succ)}
        ready = [(key(node), rank[node], node) for node, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            node = heapq.heappop(ready)[2]
            order.append(node)
            for child in succ[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, (key(child), rank[child], child))
        return order
