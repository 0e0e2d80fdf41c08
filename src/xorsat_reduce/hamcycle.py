"""Hamiltonian cycles via reduction to a 2-in-degree occupation instance.

Each edge becomes a boolean variable and each node a clause requiring
exactly two of its incident edges to be selected. Solutions of that
instance are disjoint unions of cycles covering every node; a walk
along each candidate's packed edge set keeps only single cycles. For a
connected graph the parity system has rank n_nodes - 1, which pins the
reduced-space size.
The tests check that rank, the cost exponent n/4 + 1/2 it gives on
3-regular graphs, and every solver's answer against a count by path
enumeration; those references and the named graphs they run on live
beside the tests, not in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, ParseError
from .instances import Instance, read_records
from .reduction import XorInfeasible, expand_index, reduce_instance, scan

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


def _packed_cycle_check(graph: Graph):
    """`is_hamiltonian_cycle` for edge sets packed as ints (bit e for edge e).

    The check accepts a set of n_nodes edges when the walk from node 0
    along them, never along an edge it has used, visits every node once
    and closes at node 0. It ends on any edge set: at the first node it
    reaches twice, at a node with no unused selected edge, or after
    n_nodes steps.
    """
    n_nodes = graph.n_nodes
    every_node = (1 << n_nodes) - 1
    incident = [0] * n_nodes  # bit e of incident[u] is set iff edge e meets node u
    ends = []  # node ^ ends[e] is the other end of edge e
    bit = 1
    for u, v in graph.edges:
        incident[u] |= bit
        incident[v] |= bit
        ends.append(u ^ v)
        bit <<= 1

    def is_cycle(selected: int) -> bool:
        if selected.bit_count() != n_nodes:
            return False
        node, seen = 0, 1
        for _ in range(n_nodes):
            out = incident[node] & selected
            if not out:
                return False
            edge = out & -out
            selected ^= edge  # used: the walk never goes back along it
            node ^= ends[edge.bit_length() - 1]
            if seen >> node & 1:
                return node == 0 and seen == every_node
            seen |= 1 << node
        return False

    return is_cycle


def solve_hc(graph: Graph, reduction=None) -> np.ndarray | None:
    """The first Hamiltonian cycle in scan order as an edge assignment, or None (certified).

    Scans the reduced space of the 2-in-degree instance and checks each
    candidate that passes the scan's degree test, in index order, as a
    packed edge set: the basis point XOR the rows of its set parameters,
    read most significant first as `expand_index` reads them. Only the
    accepted index is expanded. A `reduction` of another instance with
    as many variables gives candidates that need not be 2-factors; the
    packed walk ends on those too, and one with another number of
    variables raises ValueError. Guarded to k <= 30 free dimensions.
    `reduction` is that instance's reduce_instance outcome, computed here
    when not given.
    """
    instance = hc_to_occupation(graph)
    outcome = reduce_instance(instance) if reduction is None else reduction
    if isinstance(outcome, XorInfeasible):
        return None
    point, rows = outcome.basis.point, outcome.basis.rows
    k = len(rows)
    is_cycle = _packed_cycle_check(graph)
    for start, degree_ok in scan(instance, outcome):
        for w in np.flatnonzero(degree_ok):
            base, word = start + 64 * int(w), int(degree_ok[w])
            while word:  # bit t of the word is candidate base + t
                bit = word & -word
                word ^= bit
                index = base + bit.bit_length() - 1
                selected, rest = point, index
                while rest:  # bit b of the index is parameter k - 1 - b
                    low = rest & -rest
                    selected ^= rows[k - low.bit_length()]
                    rest ^= low
                if is_cycle(selected):
                    return expand_index(outcome, index)
    return None


def _connected_simple_graph(n_nodes: int, draw_edges, failure: str) -> Graph:
    """Rejection loop: the first draw without a self-loop or a repeated edge that is connected.

    `draw_edges()` returns one draw's edges; a bad edge ends the draw
    before the rest of it is read. The tests' bipartite generator draws
    through it too, so there is one rejection loop.
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
