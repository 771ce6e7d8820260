"""Bipartite graph container, connectivity, and the vertex-edge domination
verifier.

Vertices are addressed 1-based on each side: ``x1..x{n1}`` and ``y1..y{n2}``.
A vertex w ve-dominates an edge uv when w lies in the closed neighbourhood of
u or of v; a set D is a vertex-edge dominating set (VED-set) when every edge
is ve-dominated by some member of D.

A graph is stored as its X rows only; ``columns`` derives the Y side.
"""

from __future__ import annotations

from itertools import compress, islice
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

    def check_refs(self, refs: Iterable[VertexRef]) -> None:
        """Raise InputError if any reference falls outside this graph.

        The error names the least offending reference, x side before y,
        then by index, so it does not depend on the iteration order of refs.
        """
        sizes = {"x": self.n1, "y": self.n2}
        bad = [v for v in refs if not 1 <= v.index <= sizes.get(v.side, 0)]
        if not bad:
            return
        v = min(bad)
        if v.side == "x":
            raise InputError(f"vertex {v.name()} out of range (n1={self.n1})")
        if v.side == "y":
            raise InputError(f"vertex {v.name()} out of range (n2={self.n2})")
        raise InputError(f"invalid vertex side {v.side!r}")


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


def _coverage(g: BipartiteGraph, d: Iterable[VertexRef]) -> tuple[list[bool], list[bool]]:
    """covered_x[i-1] is true when x_i or a neighbour of x_i lies in d, and
    covered_y likewise; both are read off the X rows."""
    in_x = [False] * g.n1
    in_y = [False] * g.n2
    for v in d:
        if v.side == "x":
            in_x[v.index - 1] = True
        else:
            in_y[v.index - 1] = True
    covered_x = [in_x[i] or any(in_y[j - 1] for j in g.adj_x[i]) for i in range(g.n1)]
    covered_y = in_y[:]
    for nb in compress(g.adj_x, in_x):
        for j in nb:
            covered_y[j - 1] = True
    return covered_x, covered_y


def _undominated(g: BipartiteGraph, d: Iterable[VertexRef]) -> tuple[tuple[int, int] | None, int]:
    """(first, count): the smallest edge d leaves undominated, None when d is
    a VED-set, and how many edges it leaves undominated."""
    d = set(d)
    g.check_refs(d)
    covered_x, covered_y = _coverage(g, d)
    missed = [(i, j) for i, (covered, nb) in enumerate(zip(covered_x, g.adj_x), start=1)
              if not covered for j in nb if not covered_y[j - 1]]
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
    cols = g.columns()
    seen_x = [False] * g.n1
    seen_y = [False] * g.n2
    comps: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def sweep(start: VertexRef) -> tuple[tuple[int, ...], tuple[int, ...]]:
        xs: list[int] = []
        ys: list[int] = []
        stack = [start]
        while stack:
            v = stack.pop()
            if v.side == "x":
                if seen_x[v.index - 1]:
                    continue
                seen_x[v.index - 1] = True
                xs.append(v.index)
                stack.extend(yref(j) for j in g.adj_x[v.index - 1])
            else:
                if seen_y[v.index - 1]:
                    continue
                seen_y[v.index - 1] = True
                ys.append(v.index)
                stack.extend(xref(i) for i in cols[v.index - 1])
        return tuple(sorted(xs)), tuple(sorted(ys))

    for i in range(1, g.n1 + 1):
        if not seen_x[i - 1]:
            comps.append(sweep(xref(i)))
    for j in range(1, g.n2 + 1):
        if not seen_y[j - 1]:
            comps.append(sweep(yref(j)))
    return comps
