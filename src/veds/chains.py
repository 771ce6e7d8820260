"""Chain decomposition of a connected convex bipartite graph, and the
interval tables it shares with the exact solver.

The decomposition repeatedly peels a chain subgraph off the front of the
ordering: take the first remaining Y-position, its neighbourhood, and the
neighbourhood of its farthest-reaching neighbour; remove them; collect the
X vertices stranded (isolated) by the removal; repeat.  When the remainder is
itself a chain graph it is emitted whole as the final chain.  Each peel is
one ``x_pivot`` step of the exact solver, read off the same ``_Component``
tables.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .errors import ContractError
from .graph import BipartiteGraph, VertexRef, xref, yref
from .ordering import Interval, LexConvexOrdering, ensure_valid_lex_ordering

__all__ = [
    "ChainDecomposition",
    "ClauseCheck",
    "DecompositionLemmaReport",
    "decompose",
    "is_chain_graph",
    "verify_decomposition_lemma",
]


@dataclass(frozen=True)
class ChainDecomposition:
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

    def vertex_partition(self) -> list[frozenset[VertexRef]]:
        parts: list[frozenset[VertexRef]] = []
        for (hx, hy), js in zip(self.chains, self.isolated_sets):
            parts.append(frozenset(xref(i) for i in hx) | frozenset(yref(j) for j in hy))
            parts.append(frozenset(xref(i) for i in js))
        parts.append(self.tail_isolated)
        return parts


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

    A state is asked for as (floor, start): ``front(start, floor)``, the
    intervals containing start with left end > floor, plus every interval
    starting after start.  The front is read off one window of ``entries``,
    those with floor < left <= start, and kept in ``entries`` order.
    ``entries`` are the piece's intervals, sorted, none starting before
    ``ylo``, together covering [ylo, yhi]; ``lefts`` holds their left ends.
    Built once, in O(n):

    - ``sufmin[i]``: the least right end in ``entries[i:]``;
    - ``cut[i]``: the largest boundary q <= yhi - 1 (between positions q and
      q + 1) that no interval of ``entries[i:]`` spans with left <= q < right.
      Intervals join only by overlap, so a boundary, not a position, is what
      separates two runs.

    ``memo`` maps a state (start, first interval of its front, or None when
    the front is empty) to the solver's (count, witness).
    """

    __slots__ = ("entries", "lefts", "ylo", "yhi", "sufmin", "cut", "memo")

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
        self.memo: dict[tuple[int, Interval | None], tuple] = {}

    def front(self, start: int, floor: int) -> list[Interval]:
        lefts = self.lefts
        window = self.entries[bisect_right(lefts, floor) : bisect_right(lefts, start)]
        return [e for e in window if e[1] >= start]


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
    chain is ``front(start, floor)`` with the previous round's start as
    floor, so the rounds read disjoint windows of the sorted intervals: each
    interval enters at most one front.
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
    floor, start = 0, 1
    while start <= g.n2:
        # Every interval containing `start` starts after the previous start:
        # one containing both would have been in the previous front, whose
        # farthest reach is start - 1.  So the floor drops none of this
        # chain's front.
        front = comp.front(start, floor)
        reach, pivot = max((e[1], e[2]) for e in front)
        b = bisect_right(lefts, start)
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
        floor, start = start, reach + 1
    return ChainDecomposition(
        tuple(chains), tuple(strands), tuple(pivots), frozenset(), ordering
    )


def is_chain_graph(g: BipartiteGraph) -> bool:
    """True iff the X-neighbourhoods are totally ordered by inclusion."""
    hoods = sorted(
        (frozenset(g.neighbors_x(i)) for i in range(1, g.n1 + 1)),
        key=lambda s: -len(s),
    )
    return all(b <= a for a, b in zip(hoods, hoods[1:]))


@dataclass(frozen=True)
class ClauseCheck:
    chain_index: int  # 1-based
    clause: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class DecompositionLemmaReport:
    checks: tuple[ClauseCheck, ...]
    tail_flagged: bool

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_decomposition_lemma(
    g: BipartiteGraph, decomp: ChainDecomposition
) -> DecompositionLemmaReport:
    """Structural checks on a decomposition, evaluated against g itself.

    Per chain i: (a) every stranded vertex of round i is adjacent to the Y
    side of chain i; (b) the last Y vertex of chain i has a neighbour inside
    chain i+1; (c) chain i has no adjacency into the strand of round i+1 nor
    into chain i+2.
    """
    ensure_valid_lex_ordering(g, decomp.ordering)
    _check_partition(g, decomp)
    checks: list[ClauseCheck] = []
    chains = decomp.chains
    strands = decomp.isolated_sets
    for idx, ((hx, hy), js) in enumerate(zip(chains, strands), start=1):
        bad = sorted(v for v in js if not set(g.neighbors_x(v)) & hy)
        checks.append(
            ClauseCheck(
                idx,
                "strand-attached",
                not bad,
                "all stranded vertices touch the chain"
                if not bad
                else f"x{bad[0]} has no neighbour in the chain's Y side",
            )
        )
        if idx < len(chains):
            last_y = max(hy, key=decomp.ordering.y_position)
            nxt_x = chains[idx][0]
            linked = sorted(set(g.neighbors_y(last_y)) & nxt_x)
            checks.append(
                ClauseCheck(
                    idx,
                    "next-chain-linked",
                    bool(linked),
                    f"y{last_y} reaches x{linked[0]} in chain {idx + 1}"
                    if linked
                    else f"y{last_y} has no neighbour in chain {idx + 1}",
                )
            )
        forward_strand = strands[idx] if idx < len(strands) else frozenset()
        forward_chain = chains[idx + 1] if idx + 1 < len(chains) else None
        leaks: list[str] = []
        for j in hy:
            hit = set(g.neighbors_y(j)) & forward_strand
            if hit:
                leaks.append(f"y{j}~x{min(hit)} (strand {idx + 1})")
        if forward_chain is not None:
            fx, fy = forward_chain
            for j in hy:
                hit = set(g.neighbors_y(j)) & fx
                if hit:
                    leaks.append(f"y{j}~x{min(hit)} (chain {idx + 2})")
            for i in hx:
                hit = set(g.neighbors_x(i)) & fy
                if hit:
                    leaks.append(f"x{i}~y{min(hit)} (chain {idx + 2})")
        checks.append(
            ClauseCheck(
                idx,
                "no-forward-reach",
                not leaks,
                "no adjacency past the next strand" if not leaks else "; ".join(sorted(leaks)),
            )
        )
    return DecompositionLemmaReport(tuple(checks), bool(decomp.tail_isolated))


def _check_partition(g: BipartiteGraph, decomp: ChainDecomposition) -> None:
    seen: set[VertexRef] = set()
    total = 0
    for part in decomp.vertex_partition():
        for v in part:
            limit = g.n1 if v.side == "x" else g.n2
            if not 1 <= v.index <= limit:
                raise ContractError(
                    f"decomposition mentions {v.name()}, which the graph lacks"
                )
        total += len(part)
        seen |= part
    if total != len(seen) or len(seen) != g.n:
        raise ContractError("decomposition does not partition the graph's vertices")
