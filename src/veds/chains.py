"""Chain decomposition of a connected convex bipartite graph, and the
interval tables it shares with the exact solver.

The decomposition repeatedly peels a chain subgraph off the front of the
ordering: take the first remaining Y-position, its neighbourhood, and the
neighbourhood of its farthest-reaching neighbour; remove them; collect the
X vertices stranded (isolated) by the removal; repeat.  When the remainder is
itself a chain graph it is emitted whole as the final chain.  Each peel is
one ``x_pivot`` step of the exact solver, read off the same ``_Component``
tables.

``verify_decomposition_lemma`` checks a decomposition against the graph
alone, without the intervals: it labels every vertex with its part once,
which is also the partition check, and then reads the labels along one
adjacency list per vertex, in O(n + m).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ContractError
from .graph import BipartiteGraph, VertexRef
from .ordering import Interval, LexConvexOrdering, ensure_valid_lex_ordering

__all__ = [
    "ChainDecomposition",
    "ClauseCheck",
    "DecompositionLemmaReport",
    "decompose",
    "verify_decomposition_lemma",
]


class ChainDecomposition(NamedTuple):
    """Alternating sequence of chain subgraphs and stranded X-vertex sets.

    ``chains[i]`` is the (X, Y) vertex pair of the i-th chain (original
    indices); ``isolated_sets[i]`` holds the X vertices stranded right after
    it (possibly empty, always the same length as ``chains``).
    ``pivots[i]`` is the farthest-reaching neighbour of chain i's first Y
    vertex, ties to the larger index: the chain-pivot baseline's pick.
    ``tail_isolated`` holds the vertices no chain covers, which only happens
    for the edgeless one-vertex graph.  The ordering the decomposition was
    computed under is kept for verification.
    """

    chains: tuple[tuple[frozenset[int], frozenset[int]], ...]
    isolated_sets: tuple[frozenset[int], ...]
    pivots: tuple[int, ...]
    tail_isolated: frozenset[VertexRef]
    ordering: LexConvexOrdering


def _coverage_runs(entries: Sequence[Interval]) -> list[tuple[list[Interval], int, int]]:
    """Group intervals into maximal overlap-connected runs.

    Entries must arrive clipped to their state's start and sorted.  Two
    intervals land in the same run iff a chain of pairwise-overlapping
    intervals joins them, which for convex graphs is exactly connectivity;
    Y-positions not covered by any run are isolated.
    """
    runs: list[tuple[list[Interval], int, int]] = []
    members: list[Interval] = []
    lo = hi = 0
    for e in entries:
        if members and e[0] <= hi:
            members.append(e)
            if e[1] > hi:
                hi = e[1]
        else:
            if members:
                runs.append((members, lo, hi))
            members, lo, hi = [e], e[0], e[1]
    if members:
        runs.append((members, lo, hi))
    return runs


class _Component:
    """One connected piece of intervals and the tables its states read,
    shared by the exact solver and ``decompose``.

    A state at ``start`` reads one window of ``entries``: from ``lo`` to
    the first interval starting after start (``window`` below).  Its front
    is the intervals of that window containing start, kept in ``entries``
    order.  ``entries`` are the piece's intervals, sorted, none starting
    before ``ylo``, together covering [ylo, yhi]; ``lefts`` holds their left
    ends.  Built once, in O(n):

    - ``sufmin[i]``: the least right end in ``entries[i:]``;
    - ``cut[i]``: the largest boundary q <= yhi - 1 (between positions q and
      q + 1) that no interval of ``entries[i:]`` spans with left <= q < right.
      Intervals join only by overlap, so a boundary, not a position, is what
      separates two runs.
    """

    __slots__ = ("entries", "lefts", "ylo", "yhi", "sufmin", "cut")

    def __init__(self, entries: list[Interval], ylo: int, yhi: int) -> None:
        n = len(entries)
        sufmin = [yhi + 1] * (n + 1)
        cut = [yhi - 1] * (n + 1)
        for i in range(n - 1, -1, -1):
            left, right, _ = entries[i]
            sufmin[i] = min(right, sufmin[i + 1])
            q = cut[i + 1]
            cut[i] = left - 1 if left <= q < right else q
        self.entries = entries
        self.lefts = [e[0] for e in entries]
        self.ylo, self.yhi = ylo, yhi
        self.sufmin, self.cut = sufmin, cut

    def window(self, lo: int, start: int) -> tuple[int, int]:
        """(f, b): ``entries[lo:b]`` is the window, b being the first
        interval starting after start, and ``entries[f]`` is the first
        interval of the window containing start (f = b when none does).
        With lo the first interval starting after some floor < start, the
        front is every interval with floor < left <= start <= right."""
        entries = self.entries
        b = bisect_right(self.lefts, start, lo)
        f = lo
        while f < b and entries[f][1] < start:
            f += 1
        return f, b


def _nested(entries: list[Interval]) -> bool:
    """True when the intervals form a chain under containment."""
    seq = sorted(entries, key=lambda e: (e[0], -e[1]))
    return all(seq[k][1] >= seq[k + 1][1] for k in range(len(seq) - 1))


def decompose(g: BipartiteGraph, ordering: LexConvexOrdering) -> ChainDecomposition:
    """Peel chains off a connected convex bipartite graph.

    All reasoning happens on ordering positions; the reported sets carry
    original vertex indices.  The peels are the exact solver's ``x_pivot``
    walk from the first Y position: each starts one past the previous
    chain's reach, and the last reach is the final Y position.  A round's
    window begins where the previous round's ended, past the intervals
    starting by the previous start, so the rounds read disjoint windows of
    the sorted intervals: each interval enters at most one front.
    """
    ensure_valid_lex_ordering(g, ordering)
    comp = _Component(list(ordering.intervals), 1, g.n2)
    entries, lefts = comp.entries, comp.lefts
    # Connected: at most one vertex, or no isolated X vertex and an interval
    # spanning every boundary between two Y positions (cut[0] below 1).
    if g.n > 1 and not (len(entries) == g.n1 and comp.cut[0] < 1):
        raise ContractError("decompose requires a connected graph; split components first")
    if not entries:
        # No edges: a connected graph this small is a single vertex.
        tail = frozenset(g.vertices())
        return ChainDecomposition((), (), (), tail, ordering)

    chains: list[tuple[frozenset[int], frozenset[int]]] = []
    strands: list[frozenset[int]] = []
    pivots: list[int] = []
    lo, start = 0, 1
    while start <= g.n2:
        # Every interval containing `start` starts after the previous start:
        # one containing both would have been in the previous front, whose
        # farthest reach is start - 1.  So the window drops none of this
        # chain's front.
        f, b = comp.window(lo, start)
        front = [e for e in entries[f:b] if e[1] >= start]
        reach, pivot = max((e[1], e[2]) for e in front)
        stranded = [e for e in entries[b : bisect_right(lefts, reach)] if e[1] <= reach]
        whole_is_chain = (
            reach == g.n2
            and stranded
            and _nested(stranded)
            and max(e[1] for e in stranded) <= min(e[1] for e in front)
        )
        if whole_is_chain:
            front, stranded = front + stranded, []
        y_block = frozenset(ordering.yperm[p - 1] for p in range(start, reach + 1))
        chains.append((frozenset(e[2] for e in front), y_block))
        strands.append(frozenset(e[2] for e in stranded))
        pivots.append(pivot)
        lo, start = b, reach + 1
    return ChainDecomposition(
        tuple(chains), tuple(strands), tuple(pivots), frozenset(), ordering
    )


class ClauseCheck(NamedTuple):
    chain_index: int  # 1-based
    clause: str
    ok: bool
    detail: str


class DecompositionLemmaReport(NamedTuple):
    checks: tuple[ClauseCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def _labels(g: BipartiteGraph, decomp: ChainDecomposition) -> tuple[list[int], list[int]]:
    """Label every vertex with its part: ``part_x[i]`` and ``part_y[j]`` are
    0 for the tail, 2k - 1 for chain k and 2k for the strand after it (Y
    vertices are never stranded); index 0 is unused.

    This is the partition check.  A mentioned vertex the graph lacks is
    reported first, the least one, x side before y; then every vertex must
    be mentioned exactly once.
    """
    tail = decomp.tail_isolated
    xparts = [[v.index for v in tail if v.side == "x"]]
    yparts = [[v.index for v in tail if v.side != "x"]]
    for (hx, hy), js in zip(decomp.chains, decomp.isolated_sets):
        xparts += (hx, js)
        yparts += (hy, ())
    for side, n, parts in (("x", g.n1, xparts), ("y", g.n2, yparts)):
        foreign = [v for part in parts for v in part if not 1 <= v <= n]
        if foreign:
            raise ContractError(
                f"decomposition mentions {side}{min(foreign)}, which the graph lacks"
            )
    part_x, part_y = [-1] * (g.n1 + 1), [-1] * (g.n2 + 1)
    for label, parts in ((part_x, xparts), (part_y, yparts)):
        for k, part in enumerate(parts):
            for v in part:
                label[v] = k
    # n mentions that leave no vertex unlabelled mention each exactly once.
    if sum(map(len, xparts + yparts)) != g.n or -1 in part_x[1:] or -1 in part_y[1:]:
        raise ContractError("decomposition does not partition the graph's vertices")
    return part_x, part_y


def _hits(
    adj: Sequence[Sequence[int]], part: list[int], vs: Iterable[int], label: int
) -> Iterator[tuple[int, int]]:
    """(v, w) for each v of vs with a neighbour labelled ``label``; w is the
    least one, the first in v's ascending adjacency list."""
    for v in vs:
        if label in map(part.__getitem__, adj[v - 1]):
            yield v, next(w for w in adj[v - 1] if part[w] == label)


def verify_decomposition_lemma(
    g: BipartiteGraph, decomp: ChainDecomposition
) -> DecompositionLemmaReport:
    """Structural checks on a decomposition, evaluated against g itself.

    Per chain i: (a) every stranded vertex of round i is adjacent to the Y
    side of chain i; (b) the last Y vertex of chain i has a neighbour inside
    chain i+1; (c) chain i has no adjacency into the strand of round i+1 nor
    into chain i+2.  Each vertex is labelled with its part once; each clause
    then reads the labels along one adjacency list per vertex, so the check
    is O(n + m).  A chain with an empty side is a ContractError.
    """
    ensure_valid_lex_ordering(g, decomp.ordering)
    part_x, part_y = _labels(g, decomp)
    adj_x, adj_y, chains = g.adj_x, g.adj_y, decomp.chains
    checks: list[ClauseCheck] = []
    for idx, ((hx, hy), js) in enumerate(zip(chains, decomp.isolated_sets), start=1):
        if not (hx and hy):
            raise ContractError(f"decomposition chain {idx} has an empty side")
        own = 2 * idx - 1  # chain idx + 1 is own + 2, and its strand own + 3
        bad = sorted(v for v in js if own not in map(part_y.__getitem__, adj_x[v - 1]))
        checks.append(ClauseCheck(idx, "strand-attached", not bad, (
            f"x{bad[0]} has no neighbour in the chain's Y side" if bad
            else "all stranded vertices touch the chain")))
        if idx < len(chains):
            last_y = max(hy, key=decomp.ordering.y_position)
            linked = [i for i in adj_y[last_y - 1] if part_x[i] == own + 2]
            checks.append(ClauseCheck(idx, "next-chain-linked", bool(linked), (
                f"y{last_y} reaches x{linked[0]} in chain {idx + 1}" if linked
                else f"y{last_y} has no neighbour in chain {idx + 1}")))
        # Labels past the last strand's match no vertex, so the last two
        # chains need no bounds check.
        leaks = [f"y{j}~x{i} (strand {idx + 1})" for j, i in _hits(adj_y, part_x, hy, own + 3)]
        leaks += [f"y{j}~x{i} (chain {idx + 2})" for j, i in _hits(adj_y, part_x, hy, own + 4)]
        leaks += [f"x{i}~y{j} (chain {idx + 2})" for i, j in _hits(adj_x, part_y, hx, own + 4)]
        checks.append(ClauseCheck(idx, "no-forward-reach", not leaks, (
            "; ".join(sorted(leaks)) if leaks else "no adjacency past the next strand")))
    return DecompositionLemmaReport(tuple(checks))
