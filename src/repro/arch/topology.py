"""Trap interconnect topology.

Traps are vertices; shuttle paths are edges.  The paper evaluates the
"L6" topology — 6 traps in a line (Fig. 7) — but QCCDSim also models
other shapes, so linear, ring, grid, and arbitrary topologies are
supported.  Shortest paths are precomputed with BFS (edges are unit
cost: one hop = one shuttle).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence


class TopologyError(ValueError):
    """Raised on malformed topologies or unreachable routes."""


class TrapTopology:
    """Undirected graph of traps connected by shuttle paths.

    Parameters
    ----------
    num_traps:
        Number of traps (vertices named ``0 .. num_traps-1``).
    edges:
        Iterable of undirected trap-id pairs.
    name:
        Topology label used in reports (e.g. ``"L6"``).
    """

    def __init__(
        self,
        num_traps: int,
        edges: Iterable[tuple[int, int]],
        name: str = "custom",
    ) -> None:
        if num_traps <= 0:
            raise TopologyError("topology needs at least one trap")
        self.num_traps = int(num_traps)
        self.name = name
        self._adjacency: list[list[int]] = [[] for _ in range(num_traps)]
        self._edges: set[tuple[int, int]] = set()
        for a, b in edges:
            self.add_edge(a, b)
        self._dist: list[list[int]] | None = None
        self._next_hop: list[list[int]] | None = None
        self._unique_paths: bool | None = None

    def add_edge(self, a: int, b: int) -> None:
        """Add an undirected shuttle path between traps ``a`` and ``b``."""
        if not (0 <= a < self.num_traps and 0 <= b < self.num_traps):
            raise TopologyError(f"edge ({a}, {b}) references unknown trap")
        if a == b:
            raise TopologyError(f"self-loop on trap {a}")
        key = (min(a, b), max(a, b))
        if key in self._edges:
            return
        self._edges.add(key)
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        self._dist = None
        self._next_hop = None
        self._unique_paths = None

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of undirected edges."""
        return sorted(self._edges)

    def neighbors(self, trap: int) -> list[int]:
        """Traps adjacent to ``trap``, sorted by id."""
        return sorted(self._adjacency[trap])

    def _ensure_paths(self) -> None:
        if self._dist is not None:
            return
        n = self.num_traps
        INF = n + 1
        dist = [[INF] * n for _ in range(n)]
        next_hop = [[-1] * n for _ in range(n)]
        unique = True
        for src in range(n):
            dist[src][src] = 0
            next_hop[src][src] = src
            # Shortest-path counts, capped at 2: BFS finalizes u before
            # any v one hop further, so count[u] is exact when used.
            count = [0] * n
            count[src] = 1
            queue = deque([src])
            while queue:
                u = queue.popleft()
                for v in sorted(self._adjacency[u]):
                    if dist[src][v] > dist[src][u] + 1:
                        dist[src][v] = dist[src][u] + 1
                        # first hop out of src on the path to v
                        next_hop[src][v] = v if u == src else next_hop[src][u]
                        count[v] = count[u]
                        queue.append(v)
                    elif dist[src][v] == dist[src][u] + 1:
                        count[v] = min(2, count[v] + count[u])
            if max(count) > 1:
                unique = False
        self._dist = dist
        self._next_hop = next_hop
        self._unique_paths = unique

    def has_unique_shortest_paths(self) -> bool:
        """True when every connected pair of traps has exactly one
        shortest route (linear machines, trees, odd rings).

        Path-diversity passes (``reroute``) are provable no-ops on such
        topologies.  Computed once with the BFS distance tables; pairs
        in different components are ignored.
        """
        self._ensure_paths()
        assert self._unique_paths is not None
        return self._unique_paths

    def distance(self, a: int, b: int) -> int:
        """Hop count of the shortest shuttle route between two traps."""
        self._ensure_paths()
        assert self._dist is not None
        d = self._dist[a][b]
        if d > self.num_traps:
            raise TopologyError(f"traps {a} and {b} are disconnected")
        return d

    def next_hop_table(self) -> list[list[int]]:
        """The BFS next-hop table: ``table[a][b]`` is the trap after
        ``a`` on :meth:`shortest_path` from ``a`` to ``b`` (``a`` itself
        when ``a == b``, ``-1`` when they are disconnected).

        The router walks a route hop by hop through this table instead
        of building a path list per hop.  The table is the topology's
        own: read it, never write it.
        """
        self._ensure_paths()
        assert self._next_hop is not None
        return self._next_hop

    def shortest_path(self, a: int, b: int) -> list[int]:
        """Trap sequence from ``a`` to ``b`` inclusive (BFS, deterministic)."""
        self._ensure_paths()
        assert self._next_hop is not None
        if self.distance(a, b) > self.num_traps:  # pragma: no cover
            raise TopologyError(f"traps {a} and {b} are disconnected")
        path = [a]
        current = a
        while current != b:
            current = self._next_hop[current][b]
            if current == -1:
                raise TopologyError(f"traps {a} and {b} are disconnected")
            path.append(current)
        return path

    def is_connected(self) -> bool:
        """True when every trap can reach every other trap."""
        try:
            return all(
                self.distance(0, t) <= self.num_traps
                for t in range(self.num_traps)
            )
        except TopologyError:
            return False

    def __repr__(self) -> str:
        return (
            f"TrapTopology(name={self.name!r}, traps={self.num_traps}, "
            f"edges={len(self._edges)})"
        )


def linear_topology(num_traps: int, name: str | None = None) -> TrapTopology:
    """A line of traps: ``0 - 1 - ... - (n-1)`` (the paper's ``L6``)."""
    label = name if name is not None else f"L{num_traps}"
    return TrapTopology(
        num_traps, [(i, i + 1) for i in range(num_traps - 1)], name=label
    )


def ring_topology(num_traps: int, name: str | None = None) -> TrapTopology:
    """A cycle of traps (QCCDSim's ring configuration)."""
    if num_traps < 3:
        raise TopologyError("ring topology needs at least 3 traps")
    label = name if name is not None else f"R{num_traps}"
    edges = [(i, (i + 1) % num_traps) for i in range(num_traps)]
    return TrapTopology(num_traps, edges, name=label)


def grid_topology(rows: int, cols: int, name: str | None = None) -> TrapTopology:
    """A rows x cols mesh of traps (QCCDSim's grid configuration)."""
    if rows <= 0 or cols <= 0:
        raise TopologyError("grid dimensions must be positive")
    label = name if name is not None else f"G{rows}x{cols}"
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return TrapTopology(rows * cols, edges, name=label)
