"""Property tests for the constraint digraph (repro.si.graph).

Over random digraphs: ``find_cycle`` returns a closed chain of existing
edges exactly when ``topological_order`` leaves a node out, the order
respects every edge, and each step emits the smallest ready node.  When
networkx is installed, both answers must equal its ``find_cycle`` and
``lexicographical_topological_sort``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.si.graph import DiGraph

edge_lists = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n
    )
)


def build(edges):
    graph = DiGraph()
    for source, target in edges:
        graph.add_edge(source, target)
    return graph


def nodes_of(edges):
    return list(dict.fromkeys(node for edge in edges for node in edge))


@settings(max_examples=300, deadline=None)
@given(edge_lists)
def test_cycle_exactly_when_the_order_misses_a_node(edges):
    graph = build(edges)
    nodes = nodes_of(edges)
    cycle = graph.find_cycle()
    order = graph.topological_order()
    assert (cycle is not None) == (len(order) < len(nodes))
    if cycle is not None:
        assert all(edge in edges for edge in cycle)
        assert all(a[1] == b[0] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        assert len({source for source, _target in cycle}) == len(cycle)


@settings(max_examples=300, deadline=None)
@given(edge_lists)
def test_order_respects_edges_and_pops_the_smallest_ready_node(edges):
    graph = build(edges)
    nodes = nodes_of(edges)
    order = graph.topological_order()
    assert len(set(order)) == len(order)
    position = {node: index for index, node in enumerate(order)}
    for source, target in edges:
        if target in position:
            assert source in position and position[source] < position[target]
    emitted = set()
    for node in order:
        ready = [
            n for n in nodes
            if n not in emitted
            and all(s in emitted for s, t in edges if t == n)
        ]
        smallest = min(ready, key=lambda n: (str(n), nodes.index(n)))
        assert node == smallest
        emitted.add(node)


def test_key_orders_ties_and_insertion_breaks_them():
    graph = build([("b", "z"), ("a", "z"), ("c", "c2")])
    assert graph.topological_order() == ["a", "b", "c", "c2", "z"]
    assert graph.topological_order(key=lambda node: 0) == ["b", "a", "z", "c", "c2"]


def test_cycle_starts_where_the_closing_edge_points():
    graph = build([(0, 1), (1, 2), (2, 3), (3, 1), (1, 4)])
    assert graph.find_cycle() == [(1, 2), (2, 3), (3, 1)]
    assert build([(0, 0)]).find_cycle() == [(0, 0)]
    assert build([(0, 1), (1, 2), (0, 2)]).find_cycle() is None


@settings(max_examples=300, deadline=None)
@given(edge_lists)
def test_answers_equal_networkx(edges):
    nx = pytest.importorskip("networkx")
    reference = nx.DiGraph()
    reference.add_edges_from(edges)
    graph = build(edges)
    try:
        expected = nx.find_cycle(reference)
    except nx.NetworkXNoCycle:
        expected = None
    assert graph.find_cycle() == expected
    if expected is None:
        assert graph.topological_order(key=str) == list(
            nx.lexicographical_topological_sort(reference, key=str)
        )
