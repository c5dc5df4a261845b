"""Conversions between :class:`repro.graphs.graph.Graph` and networkx.

networkx is used only as an *oracle* (see
:mod:`repro.baselines.networkx_oracle`); all algorithms in this library run
on our own :class:`Graph`.  These converters are the single boundary where
the two representations meet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graphs.graph import Graph, GraphError

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


def to_networkx(graph: Graph) -> nx.Graph:
    """Convert to an undirected networkx graph with identical node labels."""
    import networkx

    nx_graph = networkx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from(graph.edges())
    return nx_graph


def from_networkx(nx_graph: nx.Graph) -> Graph:
    """Convert from networkx, rejecting directed/multi graphs and self-loops."""
    if nx_graph.is_directed():
        raise GraphError("directed graphs are not supported")
    if nx_graph.is_multigraph():
        raise GraphError("multigraphs are not supported")
    graph = Graph(nodes=nx_graph.nodes())
    for u, v in nx_graph.edges():
        if u == v:
            raise GraphError(f"self-loop at node {u!r} is not supported")
        graph.add_edge(u, v)
    return graph
