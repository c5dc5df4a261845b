"""Small real-world benchmark graphs.

These classic social networks ship inside networkx (no download needed)
and are converted to our :class:`Graph` at the boundary.  They give the
examples and benchmarks a non-synthetic workload: the karate club is the
canonical community-split network, the Florentine families graph is the
textbook brokerage example (the Medici's betweenness advantage), and Les
Miserables is a larger co-occurrence network with heavy-tailed degrees.
"""

from __future__ import annotations

from repro.graphs.convert import from_networkx
from repro.graphs.graph import Graph


def karate_club() -> Graph:
    """Zachary's karate club (n = 34, m = 78).

    Node 0 is the instructor ("Mr. Hi"), node 33 the club president; the
    club's real-world split followed the two leaders, who are also the
    betweenness leaders.
    """
    import networkx as nx

    return from_networkx(nx.karate_club_graph())


def florentine_families() -> Graph:
    """Padgett's Florentine marriage network (n = 15, m = 20).

    The Medici owe their historical brokerage position to betweenness:
    they top every betweenness variant on this graph.
    """
    import networkx as nx

    return from_networkx(nx.florentine_families_graph())


def les_miserables() -> Graph:
    """Character co-occurrence network of Les Miserables (n = 77, m = 254)."""
    import networkx as nx

    return from_networkx(nx.les_miserables_graph())


DATASETS = {
    "karate": karate_club,
    "florentine": florentine_families,
    "lesmis": les_miserables,
}


def load_dataset(name: str) -> Graph:
    """Load a bundled dataset by name (see :data:`DATASETS`)."""
    from repro.graphs.graph import GraphError

    try:
        return DATASETS[name]()
    except KeyError:
        raise GraphError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None
