"""Chain decomposition of a connected convex bipartite graph, and the walk
over the ordering's sorted intervals it shares with the exact solver and the
baseline.

The decomposition repeatedly peels a chain subgraph off the front of the
ordering: take the first remaining Y-position, its neighbourhood, and the
neighbourhood of its farthest-reaching neighbour; remove them; collect the
X vertices stranded (isolated) by the removal; repeat.  When the remainder is
itself a chain graph it is emitted whole as the final chain.  Each peel is
one ``x_pivot`` step of the exact solver, read off ``ordering.intervals``
through the same ``_window``, by ``_peels``; the chain-pivot baseline reads
its pivots from the same walk.  A decomposition labels each vertex with its
part and keeps no pivots: ``solve_baseline`` is the one place they live.

``verify_decomposition_lemma`` checks a decomposition against the graph
alone, without the intervals: one pass over the X rows in ascending index,
each row's set of neighbour labels built and dropped in turn, records what
every clause needs, and one pass over the chains emits the clauses, in
O(n + m), with no Y adjacency built.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, NamedTuple, Sequence

from .errors import ContractError
from .graph import BipartiteGraph, VertexRef, xref, yref
from .ordering import Interval, LexConvexOrdering, ensure_valid_lex_ordering

__all__ = [
    "ChainDecomposition",
    "ClauseCheck",
    "decompose",
    "verify_decomposition_lemma",
]


class ChainDecomposition(NamedTuple):
    """A chain decomposition as one label per vertex.

    ``part_x[i - 1]`` and ``part_y[j - 1]`` label x_i and y_j: 2k - 1 for
    chain k, 2k for the X vertices stranded right after it (Y vertices are
    never stranded), and 0 for the tail, the vertices no chain covers, which
    only the edgeless one-vertex graph has.  The ordering the decomposition
    was computed under is kept for verification.
    """

    part_x: tuple[int, ...]
    part_y: tuple[int, ...]
    ordering: LexConvexOrdering

    def parts(self) -> tuple[list[tuple[list[int], list[int]]], list[list[int]], list[VertexRef]]:
        """(chains, strands, tail): each chain's X and Y indices, the X
        indices stranded after each chain (one list per chain, maybe empty)
        and the tail's vertices, every list ascending."""
        k = (max((*self.part_x, *self.part_y), default=0) + 1) // 2
        xs, ys = [[] for _ in range(2 * k + 1)], [[] for _ in range(2 * k + 1)]
        for i, label in enumerate(self.part_x, start=1):
            xs[label].append(i)
        for j, label in enumerate(self.part_y, start=1):
            ys[label].append(j)
        tail = [xref(i) for i in xs[0]] + [yref(j) for j in ys[0]]
        return list(zip(xs[1::2], ys[1::2])), xs[2::2], tail

    @property
    def chains(self) -> list[tuple[list[int], list[int]]]:
        """Each chain's X and Y indices, as ``parts`` lists them."""
        return self.parts()[0]


def _one_run(entries: Sequence[Interval], n2: int) -> bool:
    """True when the sorted intervals form one overlap-connected run spanning
    Y positions 1 to n2: each starts by the farthest right end before it.
    For convex graphs overlap is exactly connectivity."""
    hi = 1
    for left, right, _ in entries:
        if left > hi:
            return False
        if right > hi:
            hi = right
    return bool(entries) and hi == n2


def _window(
    entries: Sequence[Interval], lefts: list[int], lo: int, start: int
) -> tuple[int, int]:
    """(f, b): ``entries[lo:b]`` is the window a state at start reads, b
    being the first interval starting after start, and ``entries[f]`` is the
    first interval of the window containing start (f = b when none does).
    ``entries`` are sorted intervals and ``lefts`` their left ends.  With lo
    the first interval starting after some floor < start, the front is every
    interval with floor < left <= start <= right, in ``entries`` order."""
    b = bisect_right(lefts, start, lo)
    f = lo
    while f < b and entries[f][1] < start:
        f += 1
    return f, b


def _nested(entries: list[Interval]) -> bool:
    """True when the intervals form a chain under containment."""
    seq = sorted(entries, key=lambda e: (e[0], -e[1]))
    return all(seq[k][1] >= seq[k + 1][1] for k in range(len(seq) - 1))


def _peels(
    entries: Sequence[Interval],
) -> Iterator[tuple[int, int, int, list[Interval], list[Interval]]]:
    """The chains of sorted intervals in order, each as (start, reach, pivot,
    front, stranded): its first and last Y positions, its pivot, the
    intervals of its X side and those of the X vertices stranded after it.

    The peels are the exact solver's ``x_pivot`` walk: each starts one past
    the previous chain's reach, or, where no interval holds that position,
    at the next interval's left end; the walk stops after the last interval.
    A round's window begins where the previous round's ended, past the
    intervals starting by the previous start, so the rounds read disjoint
    windows of the sorted intervals: each interval enters at most one front.
    """
    lefts = [e[0] for e in entries]
    lo, start = 0, 1
    while True:
        # Every interval containing `start` starts after the previous start:
        # one containing both would have been in the previous front, whose
        # farthest reach is start - 1.  So the window drops none of this
        # chain's front.
        f, b = _window(entries, lefts, lo, start)
        if f == b:
            if b == len(entries):
                return
            lo, start = b, lefts[b]
            continue
        front = [e for e in entries[f:b] if e[1] >= start]
        reach, pivot = max((e[1], e[2]) for e in front)
        d = bisect_right(lefts, reach)
        stranded = [e for e in entries[b:d] if e[1] <= reach]
        # Every interval starting by reach ends by it: reach ends the piece.
        whole_is_chain = (
            len(stranded) == d - b
            and stranded
            and _nested(stranded)
            and max(e[1] for e in stranded) <= min(e[1] for e in front)
        )
        if whole_is_chain:
            front, stranded = front + stranded, []
        yield start, reach, pivot, front, stranded
        lo, start = b, reach + 1


def decompose(g: BipartiteGraph, ordering: LexConvexOrdering) -> ChainDecomposition:
    """Label the vertices of a connected convex bipartite graph with the
    chains ``_peels`` takes off its intervals."""
    ensure_valid_lex_ordering(g, ordering)
    entries = ordering.intervals
    # Connected: at most one vertex, or no isolated X vertex and one run of
    # intervals spanning every Y position.
    if g.n > 1 and not (len(entries) == g.n1 and _one_run(entries, g.n2)):
        raise ContractError("decompose requires a connected graph; split components first")
    part_x, part_y, label = [0] * g.n1, [0] * g.n2, -1
    # No edges: a connected graph this small is a single vertex, the tail.
    for start, reach, _, front, stranded in _peels(entries):
        label += 2
        for e in front:
            part_x[e[2] - 1] = label
        for e in stranded:
            part_x[e[2] - 1] = label + 1
        for j in ordering.yperm[start - 1 : reach]:
            part_y[j - 1] = label
    return ChainDecomposition(tuple(part_x), tuple(part_y), ordering)


class ClauseCheck(NamedTuple):
    chain_index: int  # 1-based
    clause: str
    ok: bool
    detail: str


def _chain_count(part_x: Sequence[int], part_y: Sequence[int]) -> int:
    """The number of chains the labels name, after checking their shape: no
    label is negative, no Y vertex is stranded, and every chain has both
    sides.  The label sets are freed on return, before the row pass."""
    labels_x, labels_y = set(part_x), set(part_y)
    labels = labels_x | labels_y
    if min(labels) < 0:
        raise ContractError("decomposition gives a vertex a negative label")
    if any(label > 0 and label % 2 == 0 for label in labels_y):
        raise ContractError("decomposition strands a Y vertex")
    k = (max(labels) + 1) // 2
    for idx in range(1, k + 1):
        if 2 * idx - 1 not in labels_x or 2 * idx - 1 not in labels_y:
            raise ContractError(f"decomposition chain {idx} has an empty side")
    return k


def verify_decomposition_lemma(
    g: BipartiteGraph, decomp: ChainDecomposition
) -> tuple[ClauseCheck, ...]:
    """Structural checks on a decomposition, evaluated against g itself.

    Per chain i: (a) every stranded vertex of round i is adjacent to the Y
    side of chain i; (b) the last Y vertex of chain i has a neighbour inside
    chain i+1; (c) chain i has no adjacency into the strand of round i+1 nor
    into chain i+2.  The check reads the graph from the X side only, in two
    passes.  The row pass takes the X rows in ascending index and builds
    each row's set of neighbour labels for that row alone: the rows of
    strand i answer (a) for chain i, those of chain i+1 answer (b), and for
    (c) chain i's own rows give its X-side leaks and the rows of strand i+1
    and chain i+2 its Y-side ones.  The first row found is the least X
    vertex a detail names.  The chain pass returns one ``ClauseCheck`` per
    chain and clause; the lemma holds when all are ok.  O(n + m).  Wrongly
    shaped labels or a chain with an empty side are a ContractError.
    """
    ensure_valid_lex_ordering(g, decomp.ordering)
    # Y labels as a list indexed by vertex, index 0 unused: read through
    # ``map`` from a tuple, they made the check about 1.5x slower on dense
    # graphs.
    part_x, part_y = decomp.part_x, [0, *decomp.part_y]
    if len(part_x) != g.n1 or len(part_y) != g.n2 + 1:
        raise ContractError("decomposition does not label each vertex of the graph once")
    k = _chain_count(part_x, part_y)
    # last[label]: the chain's Y vertex at the greatest position.
    yperm = decomp.ordering.yperm
    last = dict(zip(map(part_y.__getitem__, yperm), yperm))
    # Per chain i: the least X of strand i off chain i's Y side, the least X
    # of chain i + 1 that last[2i - 1] reaches, and chain i's leaks.
    bad, linked, leaks = [0] * (k + 1), [0] * (k + 1), {}
    met = set()  # (j, label): y_j's leak into the rows labelled label is recorded
    for i, (label, row) in enumerate(zip(part_x, g.adj_x), start=1):
        if not label:
            continue
        seen = set(map(part_y.__getitem__, row))
        c = (label + 1) // 2  # this row's chain or strand
        if label % 2 == 0:
            if label - 1 not in seen and not bad[c]:
                bad[c] = i
            own = label - 3
        else:
            if label + 4 in seen:
                j = next(j for j in row if part_y[j] == label + 4)
                leaks.setdefault(c, []).append(f"x{i}~y{j} (chain {c + 2})")
            if c > 1 and not linked[c - 1] and last[label - 2] in row:
                linked[c - 1] = i
            own = label - 4
        if own in seen:  # no label is negative, so never for own < 0
            where = f"strand {c}" if label % 2 == 0 else f"chain {c}"
            for j in row:
                if part_y[j] == own and (j, label) not in met:
                    met.add((j, label))
                    leaks.setdefault((own + 1) // 2, []).append(f"y{j}~x{i} ({where})")
    # tuple.__new__ skips ClauseCheck's generated __new__, one Python call
    # per check; with three checks per chain that was about a tenth of the
    # check on P_204800.
    new, checks = tuple.__new__, []
    for idx in range(1, k + 1):
        x = bad[idx]
        checks.append(new(ClauseCheck, (idx, "strand-attached", not x, (
            f"x{x} has no neighbour in the chain's Y side" if x
            else "all stranded vertices touch the chain"))))
        if idx < k:
            last_y, x = last[2 * idx - 1], linked[idx]
            checks.append(new(ClauseCheck, (idx, "next-chain-linked", bool(x), (
                f"y{last_y} reaches x{x} in chain {idx + 1}" if x
                else f"y{last_y} has no neighbour in chain {idx + 1}"))))
        found = leaks.get(idx)
        checks.append(new(ClauseCheck, (idx, "no-forward-reach", not found, (
            "; ".join(sorted(found)) if found else "no adjacency past the next strand"))))
    return tuple(checks)
