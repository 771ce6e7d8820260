"""Bipartite graph container, connectivity, and the vertex-edge domination
verifier.

Vertices are addressed 1-based on each side: ``x1..x{n1}`` and ``y1..y{n2}``.
A vertex w ve-dominates an edge uv when w lies in the closed neighbourhood of
u or of v; a set D is a vertex-edge dominating set (VED-set) when every edge
is ve-dominated by some member of D.

A graph is stored as its X rows only; ``columns`` derives the Y side.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from operator import lt
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError

__all__ = [
    "VertexRef",
    "xref",
    "yref",
    "parse_vertex_name",
    "BipartiteGraph",
    "build_graph",
    "is_ve_dominating_set",
    "first_undominated_edge",
    "connected_components",
]


class VertexRef(NamedTuple):
    """A vertex of a bipartite graph: side ``"x"`` or ``"y"`` plus 1-based index."""

    side: str
    index: int

    def name(self) -> str:
        return f"{self.side}{self.index}"


def xref(i: int) -> VertexRef:
    return VertexRef("x", i)


def yref(j: int) -> VertexRef:
    return VertexRef("y", j)


def parse_vertex_name(text: str) -> VertexRef:
    """Parse ``"x3"`` / ``"y12"`` into a VertexRef."""
    text = text.strip()
    digits = text[1:]
    if len(text) < 2 or text[0] not in ("x", "y") or not (digits.isascii() and digits.isdigit()):
        raise InputError(f"invalid vertex name {text!r}: expected x<i> or y<j>")
    index = int(digits)
    if index < 1:
        raise InputError(f"invalid vertex name {text!r}: indices are 1-based")
    return VertexRef(text[0], index)


class BipartiteGraph(NamedTuple):
    """Immutable bipartite graph stored as its X rows.

    ``adj_x[i - 1]`` is the ascending tuple of Y-indices adjacent to ``x_i``.
    Every edge is stored once, so bipartiteness always holds and parallel
    edges or loops cannot be expressed.  The Y side is derived on demand by
    ``columns``.
    """

    n1: int
    n2: int
    adj_x: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return sum(len(nb) for nb in self.adj_x)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def columns(self) -> list[list[int]]:
        """``columns()[j - 1]`` is the ascending list of X-indices adjacent to
        ``y_j``.  Builds the transpose of ``adj_x`` afresh in O(n + m) on
        every call, so call it once per use, never inside a loop."""
        cols: list[list[int]] = [[] for _ in range(self.n2)]
        for i, nb in enumerate(self.adj_x, start=1):
            for j in nb:
                cols[j - 1].append(i)
        return cols

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (x-index, y-index) in ascending order."""
        for i, nb in enumerate(self.adj_x, start=1):
            for j in nb:
                yield (i, j)

    def vertices(self) -> Iterator[VertexRef]:
        for i in range(1, self.n1 + 1):
            yield xref(i)
        for j in range(1, self.n2 + 1):
            yield yref(j)


def build_graph(n1: int, n2: int, edges: Iterable[tuple[int, int]]) -> BipartiteGraph:
    """Build a graph from (x-index, y-index) pairs; duplicates collapse.

    Raises InputError naming the offending pair when an index is out of range.
    """
    if n1 < 0 or n2 < 0:
        raise InputError(f"side sizes must be nonnegative, got n1={n1}, n2={n2}")
    rows: list[list[int]] = [[] for _ in range(n1)]
    for i, j in edges:
        if not (1 <= i <= n1 and 1 <= j <= n2):
            raise InputError(f"edge ({i}, {j}) out of range for n1={n1}, n2={n2}")
        rows[i - 1].append(j)
    return _from_rows(n2, rows)


def _from_rows(n2: int, rows: Sequence[Sequence[int]]) -> BipartiteGraph:
    """The graph whose x_i is adjacent to the Y-indices in ``rows[i - 1]``.

    Rows may hold duplicates in any order, but every index must lie in
    1..n2.  A row that is not already strictly ascending is sorted and
    deduplicated once.
    """
    adj_x = tuple(
        tuple(row) if all(map(lt, row, islice(row, 1, None))) else tuple(sorted(set(row)))
        for row in rows
    )
    return BipartiteGraph(n1=len(rows), n2=n2, adj_x=adj_x)


def _undominated(g: BipartiteGraph, d: Iterable[VertexRef]) -> tuple[tuple[int, int] | None, int]:
    """(first, count): the smallest edge d leaves undominated, None when d is
    a VED-set, and how many edges it leaves undominated, read off the X rows
    with d as two index sets.  Raises InputError naming the least reference
    of d outside the graph, x side before y, then by index, so the error
    does not depend on the iteration order of d."""
    xs: set[int] = set()
    ys: set[int] = set()
    bad = []
    for v in d:
        if v.side == "x" and 1 <= v.index <= g.n1:
            xs.add(v.index)
        elif v.side == "y" and 1 <= v.index <= g.n2:
            ys.add(v.index)
        else:
            bad.append(v)
    if bad:
        v = min(bad)
        if v.side == "x":
            raise InputError(f"vertex {v.name()} out of range (n1={g.n1})")
        if v.side == "y":
            raise InputError(f"vertex {v.name()} out of range (n2={g.n2})")
        raise InputError(f"invalid vertex side {v.side!r}")
    hit = set().union(*[g.adj_x[i - 1] for i in xs])  # y_j with an X neighbour in d
    missed = [(i, j) for i, row in enumerate(g.adj_x, start=1)
              if i not in xs and ys.isdisjoint(row) for j in row if j not in hit]
    return (missed[0] if missed else None), len(missed)


def first_undominated_edge(g: BipartiteGraph, d: Iterable[VertexRef]) -> tuple[int, int] | None:
    """Return the smallest edge not ve-dominated by d, or None when d is a VED-set."""
    return _undominated(g, d)[0]


def is_ve_dominating_set(g: BipartiteGraph, d: Iterable[VertexRef]) -> bool:
    """True iff every edge uv of g has a vertex of d within N[u] or N[v].

    Runs in O(n + m) via one coverage pass over the X rows.
    """
    return first_undominated_edge(g, d) is None


def connected_components(g: BipartiteGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Partition vertices into components as (x-indices, y-indices) pairs.

    Isolated vertices appear as singleton components.  Order is deterministic:
    by smallest contained index, X-anchored components before Y-only ones.
    """
    n1 = g.n1
    # x_i is vertex i and y_j is vertex n1 + j; vertex 0 is not used.
    adj = [(), *([n1 + j for j in row] for row in g.adj_x), *g.columns()]
    seen = [True] + [False] * g.n
    comps: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for start in range(1, g.n + 1):
        if seen[start]:
            continue
        seen[start] = True
        stack, members = [start], []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        members.sort()
        k = bisect_right(members, n1)
        comps.append((tuple(members[:k]), tuple(v - n1 for v in members[k:])))
    return comps
