"""Hamiltonian cycles via reduction to a 2-in-degree occupation instance.

Each edge becomes a boolean variable and each node a clause requiring
exactly two of its incident edges to be selected. Solutions of that
instance are disjoint unions of cycles covering every node; an extra
connectivity filter keeps only single cycles. For a connected graph the
parity system has rank n_nodes - 1, which pins the reduced-space size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import GenerationError, GuardExceeded, ParseError
from .instances import Instance, read_records
from .reduction import XorInfeasible, expand_index, reduce_instance, scan

BRUTE_FORCE_MAX_NODES = 12
_GENERATOR_ATTEMPTS = 2000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges are stored as sorted (u, v) pairs."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        normalized = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.n_nodes} nodes")
            pair = (min(u, v), max(u, v))
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            normalized.append(pair)
        object.__setattr__(self, "edges", tuple(normalized))

    @classmethod
    def _from_edges(cls, n_nodes: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        """A graph over edges that their producer has already checked and normalized:
        every pair (u, v) with 0 <= u < v < n_nodes, none repeated."""
        graph = object.__new__(cls)
        graph.__dict__.update(n_nodes=n_nodes, edges=edges)
        return graph

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def incident_edges(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for e, (u, v) in enumerate(self.edges):
            out[u].append(e)
            out[v].append(e)
        return out


def _component_count(n_nodes: int, edges) -> int:
    """Connected components of the graph on n_nodes nodes with the given edges."""
    adjacency: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = [False] * n_nodes
    components = 0
    for start in range(n_nodes):
        if seen[start]:
            continue
        components += 1
        stack = [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            for nb in adjacency[node]:
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
    return components


def is_connected(graph: Graph) -> bool:
    return _component_count(graph.n_nodes, graph.edges) <= 1


def hc_to_occupation(graph: Graph) -> Instance:
    """2-in-degree instance over edge variables: one q=2 clause per node.

    Nodes of degree one still emit their (structurally unsatisfiable)
    clause; a graph with an isolated node cannot reference it through
    any edge variable, so it maps to a one-variable unsatisfiable marker
    instance instead.
    """
    incident = graph.incident_edges()
    if not all(incident):
        return Instance._from_table(max(graph.n_edges, 1), ((0,),), (0,), (2,))
    variables = tuple(map(tuple, incident))
    return Instance._from_table(graph.n_edges, variables, (0,) * graph.n_nodes, (2,) * graph.n_nodes)


def hc_rank_check(graph: Graph) -> int:
    """GF(2) rank of the packed node-edge incidence rows: n_nodes minus the component count."""
    return gf2.rank(sum(1 << e for e in edges) for edges in graph.incident_edges())


def is_hamiltonian_cycle(graph: Graph, edge_values) -> bool:
    """True iff the selected edges form one cycle through every node."""
    values = np.asarray(edge_values, dtype=np.uint8)
    if values.size != graph.n_edges:
        raise ValueError(f"edge assignment length {values.size} != {graph.n_edges}")
    if graph.n_nodes < 3:
        return False
    selected = [graph.edges[e] for e in np.nonzero(values)[0]]
    degree = np.zeros(graph.n_nodes, dtype=np.int64)
    for u, v in selected:
        degree[u] += 1
        degree[v] += 1
    if degree.min() != 2 or degree.max() != 2:
        return False
    # Degree 2 everywhere means a disjoint union of cycles; it is a single
    # cycle exactly when it is connected.
    return _component_count(graph.n_nodes, selected) == 1


def solve_hc(graph: Graph, reduction=None) -> np.ndarray | None:
    """One Hamiltonian cycle as an edge assignment, or None (certified).

    Enumerates the reduced space of the 2-in-degree instance and filters
    with the connectivity check; guarded to k <= 30 free dimensions.
    `reduction` is that instance's reduce_instance outcome, computed
    here when not given.
    """
    instance = hc_to_occupation(graph)
    outcome = reduce_instance(instance) if reduction is None else reduction
    if isinstance(outcome, XorInfeasible):
        return None
    for start, degree_ok in scan(instance, outcome):
        for i in np.flatnonzero(degree_ok):
            candidate = expand_index(outcome, start + int(i))
            if is_hamiltonian_cycle(graph, candidate):
                return candidate
    return None


def hc_cost_exponent(graph: Graph) -> float:
    """k/2 with k = n_edges - (n_nodes - 1); n/4 + 1/2 for 3-regular graphs."""
    if not is_connected(graph):
        raise ValueError("cost exponent is defined for connected graphs")
    return (graph.n_edges - (graph.n_nodes - 1)) / 2


def brute_force_hc(graph: Graph) -> int:
    """Number of distinct undirected Hamiltonian cycles, by path enumeration.

    Rotations and reflections are identified (K4 has 3). Guarded to
    n_nodes <= 12.
    """
    n = graph.n_nodes
    if n > BRUTE_FORCE_MAX_NODES:
        raise GuardExceeded("node count", n, BRUTE_FORCE_MAX_NODES)
    if n < 3:
        return 0
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in graph.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    visited = [False] * n
    visited[0] = True

    def extend(node: int, length: int) -> int:
        if length == n:
            return 1 if 0 in adjacency[node] else 0
        total = 0
        for nb in adjacency[node]:
            if not visited[nb]:
                visited[nb] = True
                total += extend(nb, length + 1)
                visited[nb] = False
        return total

    directed = extend(0, 1)
    return directed // 2


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(outer + spokes + inner))


def _connected_simple_graph(n_nodes: int, draw_edges, failure: str) -> Graph:
    """Rejection loop: the first draw without a self-loop or a repeated edge that is connected.

    `draw_edges()` returns one draw's edges; a bad edge ends the draw
    before the rest of it is read.
    """
    for _ in range(_GENERATOR_ATTEMPTS):
        edges = set()
        for u, v in draw_edges():
            edge = (min(u, v), max(u, v))
            if u == v or edge in edges:
                break
            edges.add(edge)
        else:
            graph = Graph._from_edges(n_nodes, tuple(sorted(edges)))
            if is_connected(graph):
                return graph
    raise GenerationError(failure)


def random_regular_graph(n: int, degree: int = 3, seed: int | np.random.Generator = 0) -> Graph:
    """Random simple connected `degree`-regular graph via stub pairing with rejection."""
    if n * degree % 2 or degree >= n:
        raise ValueError(f"no {degree}-regular graph on {n} nodes")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), degree)
    return _connected_simple_graph(n, lambda: rng.permutation(stubs).reshape(-1, 2).tolist(),
                                   f"no simple {degree}-regular graph found for n={n}")


def random_bipartite_regular_graph(half: int, degree: int = 3, seed: int | np.random.Generator = 0) -> Graph:
    """Random connected (degree, degree)-regular bipartite graph as a union of perfect matchings."""
    if degree > half:
        raise ValueError(f"degree {degree} exceeds side size {half}")
    rng = np.random.default_rng(seed)

    def matchings():  # lazy: a repeated edge ends the draw before the next matching is drawn
        for _ in range(degree):
            for i, j in enumerate(rng.permutation(half).tolist()):
                yield i, half + j

    return _connected_simple_graph(2 * half, matchings,
                                   f"no simple ({degree},{degree})-bipartite graph for half={half}")


def parse_graph(text: str) -> Graph:
    """Parse the DIMACS-style edge format; inverse of emit_graph.

    Format (`read_records`): optional `c` comment lines, one
    `p edge <n> <m>` header, then one `e <u> <v>` line per edge with
    1-based endpoints.
    """
    seen: set[tuple[int, int]] = set()

    def read_edge(line: str, lineno: int, header) -> tuple[int, int]:
        fields = line.split()
        if fields[0] != "e":
            raise ParseError(lineno, f"unrecognized line {line!r}")
        if len(fields) != 3:
            raise ParseError(lineno, f"malformed edge line {line!r}")
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(lineno, f"non-integer endpoint in {line!r}") from None
        n = header[0]
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(lineno, f"endpoint out of range in {line!r} (n = {n})")
        if u == v:
            raise ParseError(lineno, f"self-loop at node {u}")
        pair = (min(u, v) - 1, max(u, v) - 1)
        if pair in seen:
            raise ParseError(lineno, f"duplicate edge {u} {v}")
        seen.add(pair)
        return pair

    (n, _), edges = read_records(text, "edge", "edge", ("n", "m"), (0, 0), read_edge)
    return Graph._from_edges(n, tuple(edges))


def emit_graph(graph: Graph) -> str:
    """Serialize to the DIMACS-style edge format (1-based endpoints)."""
    lines = [f"p edge {graph.n_nodes} {graph.n_edges}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"
