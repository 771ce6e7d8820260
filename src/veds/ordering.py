"""Convex orderings of Y, lexicographic orderings of X, and per-vertex
interval endpoints.

A permutation of Y is convex when every X-neighbourhood occupies a contiguous
block of positions under it.  Given a convex ordering, X is re-ordered
lexicographically by (leftmost position, rightmost position) of its interval;
the combined structure is what the solver and decomposition consume.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import accumulate, compress, count
from typing import Iterable, NamedTuple, Sequence

from .errors import CapacityError, ContractError, InputError
from .graph import BipartiteGraph, VertexRef

__all__ = [
    "ConvexityCheck",
    "LexConvexOrdering",
    "validate_convex_ordering",
    "compute_lex_convex_ordering",
    "find_convex_ordering_exhaustive",
    "ensure_valid_lex_ordering",
]

EXHAUSTIVE_Y_LIMIT = 10
_BLOCK = 256  # rows whose Y positions _intervals holds at once

Interval = tuple[int, int, int]  # (left position, right position, x-index)


class ConvexityCheck(NamedTuple):
    """Outcome of a convexity validation: on failure, the smallest violating
    x-index and the first gap position inside its would-be interval."""

    ok: bool
    violator: int | None
    gap_position: int | None


def _positions(yperm: Sequence[int], n: int) -> list[int]:
    """``ypos[j]`` is the position of y_j under yperm (index 0 unused); the
    scatter checks it, as n entries in 1..n fill all n slots only if distinct."""
    ypos = [0] * (n + 1)
    with suppress(IndexError, TypeError):
        if len(yperm) == n and (not n or min(yperm) >= 1):
            for p, j in enumerate(yperm, start=1):
                ypos[j] = p
            if ypos.count(0) == 1:
                return ypos
    raise InputError(f"yperm is not a permutation of 1..{n}: {tuple(yperm)!r}")


def _spans(rows: Sequence[Sequence[int]], x: int, found: list[Interval]) -> bool:
    """Append (left, right, x + k) to found for each non-empty ``rows[k]``, the distinct Y
    positions of N(x + k); True if none has a gap (fewer than right - left + 1 of them)."""
    held = list(filter(None, rows))
    los = list(map(min, held))
    his = list(map(max, held))
    found += zip(los, his, compress(count(x), rows))
    return sum(his) - sum(los) + len(held) == sum(map(len, held))


def _intervals(g: BipartiteGraph, ypos: list[int]) -> tuple[list[Interval], ConvexityCheck]:
    """(left, right, x) for every non-isolated x in index order, a block of
    rows at a time, stopping at the first x whose N(x) has a gap under ypos."""
    found: list[Interval] = []
    for x in range(0, g.n1, _BLOCK):
        rows = [[ypos[j] for j in nb] for nb in g.adj_x[x:x + _BLOCK]]
        if not _spans(rows, x + 1, found):
            i, ps = next((i, ps) for i, ps in enumerate(rows, start=x + 1)
                         if ps and max(ps) - min(ps) + 1 != len(ps))
            gap = min(set(range(min(ps), max(ps) + 1)).difference(ps))
            return found, ConvexityCheck(False, i, gap)
    return found, ConvexityCheck(True, None, None)


def validate_convex_ordering(g: BipartiteGraph, yperm: Sequence[int]) -> ConvexityCheck:
    """Check that every N(x) is contiguous under yperm.

    Reports the smallest violating x-index together with the first uncovered
    position inside its interval span.
    """
    return _intervals(g, _positions(yperm, g.n2))[1]


class _OrderingFields(NamedTuple):
    graph: BipartiteGraph
    yperm: tuple[int, ...]
    intervals: tuple[Interval, ...]
    ypos: tuple[int, ...]


class LexConvexOrdering(_OrderingFields):
    """A convex ordering of Y plus the lexicographic re-ordering of X, tied to
    the graph it was built from.

    Only ``graph`` and ``yperm`` are inputs.  ``__new__``, a block of rows at
    a time, or the bulk reader of ``io.load_ordered``, slice by slice, derives
    ``intervals`` through one derivation that checks convexity (InputError on
    a gap, which the reader leaves to ``__new__``).  ``_replace``, ``_make``,
    ``copy`` and ``pickle`` at every protocol go through ``__new__``.  The
    repr shows ``yperm`` only.

    ``intervals`` lists ``(left, right, x)`` Y-position intervals of the
    non-isolated X vertices in lexicographic order; it is all the solvers
    and the decomposition read.  ``ypos[j]`` is the position of y_j.
    """

    __slots__ = ()

    def __new__(cls, graph: BipartiteGraph, yperm: Sequence[int]) -> LexConvexOrdering:
        ypos = _positions(yperm, graph.n2)
        found, check = _intervals(graph, ypos)
        if not check.ok:
            raise InputError(
                f"yperm is not a convex ordering: N(x{check.violator}) has a gap "
                f"at position {check.gap_position}"
            )
        return cls._of(graph, yperm, ypos, found)

    @classmethod
    def _of(cls, graph, yperm, ypos: list[int], found: list[Interval]) -> LexConvexOrdering:
        """Given ``ypos = _positions(yperm, n2)`` and ``_spans`` of all rows, no gap."""
        found.sort()
        return super().__new__(cls, graph, tuple(yperm), tuple(found), tuple(ypos))

    def __repr__(self) -> str:
        return f"LexConvexOrdering(yperm={self.yperm!r})"

    def __reduce__(self) -> tuple:
        return type(self), (self.graph, self.yperm)

    @classmethod
    def _make(cls, fields: Iterable) -> LexConvexOrdering:
        return cls(*fields)

    def _replace(self, **changes: object) -> LexConvexOrdering:
        return type(self)(**{"graph": self.graph, "yperm": self.yperm, **changes})

    def dominated_by(self, d: Iterable[VertexRef]) -> bool:
        """True iff d is a VED-set of ``graph``, in O(n1 + n2 + |d|).

        d ve-dominates every edge iff N[d] is a vertex cover.  A Y position
        is in N[d] when its vertex is in d or an interval of d's X vertices
        holds it (a difference array).  An X vertex is in N[d] when it is in
        d, so that N[d] holds its whole interval, or when its interval holds
        a position of d (a prefix count).  So d fails iff some interval holds
        no position of d but one outside N[d] (a second prefix count).
        Vertices of d must lie in the graph; ``graph.is_ve_dominating_set``
        is the reference check.
        """
        xs: set[int] = set()
        picked = [0] * (self.graph.n2 + 1)  # picked[p]: position p's vertex is in d
        for v in d:
            if v.side == "x":
                xs.add(v.index)
            else:
                picked[self.ypos[v.index]] = 1
        steps = [0] * (self.graph.n2 + 2)  # difference array of d's intervals
        for left, right, x in self.intervals:
            if x in xs:
                steps[left] += 1
                steps[right + 1] -= 1
        # hits[p] and free[p] count the positions <= p in d and outside N[d].
        hits = list(accumulate(picked))
        depth = accumulate(steps[1:-1])
        free = list(accumulate((not (k or c) for k, c in zip(picked[1:], depth)), initial=0))
        return not any(
            hits[left - 1] == hits[right] and free[left - 1] < free[right]
            for left, right, _ in self.intervals
        )


def compute_lex_convex_ordering(g: BipartiteGraph, yperm: Sequence[int]) -> LexConvexOrdering:
    """Validate yperm and sort X by (left, right), ties by original index.

    Isolated x vertices carry no interval and are left out of
    ``intervals``.  Runs in O(m + n1 log n1).
    """
    return LexConvexOrdering(g, yperm)


def find_convex_ordering_exhaustive(g: BipartiteGraph) -> tuple[int, ...] | None:
    """Return the lexicographically least convex ordering of Y, or None when
    the graph is not convex on Y.

    A depth-first search places Y vertices position by position, trying
    them in increasing index order.  An X vertex is open while some but not
    all of its neighbours are placed; the next vertex placed must be a
    neighbour of every open one, or that block would be interrupted with
    neighbours still to place.  The test is exact on prefixes and depends
    only on the set placed, so a set found to lead nowhere is never expanded
    again: O(2^n2 (n1 + n2)) time.  Capped at n2 <= 10; larger graphs must
    declare an ordering in their input file.
    """
    if g.n2 > EXHAUSTIVE_Y_LIMIT:
        raise CapacityError(
            f"exhaustive ordering search is capped at n2={EXHAUSTIVE_Y_LIMIT} "
            f"(got {g.n2}); supply a yorder declaration instead"
        )
    # Bit j - 1 stands for y_j; a block of one vertex is never open.
    hoods = [sum(1 << (j - 1) for j in nb) for nb in g.adj_x if len(nb) > 1]
    full = (1 << g.n2) - 1
    dead: set[int] = set()
    perm: list[int] = []

    def extend(placed: int) -> bool:
        if placed == full:
            return True
        if placed in dead:
            return False
        allowed = full & ~placed
        for hood in hoods:
            if hood & placed and hood & ~placed:
                allowed &= hood
        for j in range(1, g.n2 + 1):
            bit = 1 << (j - 1)
            if allowed & bit:
                perm.append(j)
                if extend(placed | bit):
                    return True
                perm.pop()
        dead.add(placed)
        return False

    return tuple(perm) if extend(0) else None


def ensure_valid_lex_ordering(g: BipartiteGraph, ordering: LexConvexOrdering) -> None:
    """Check that an ordering is paired with the graph it was built from.

    A LexConvexOrdering is validated however it is built (a direct call,
    ``_replace``, ``_make``, ``pickle`` or ``copy``), it is immutable, and
    it derives its other fields from its own graph, so the only way to
    misuse one is to hand it to a function together with a different
    graph.  Raises ContractError when ``ordering.graph`` is not equal to g.
    """
    if ordering.graph != g:
        raise ContractError("the ordering was built for a different graph")
