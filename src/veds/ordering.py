"""Convex orderings of Y, lexicographic orderings of X, and per-vertex
interval endpoints.

A permutation of Y is convex when every X-neighbourhood occupies a contiguous
block of positions under it.  Given a convex ordering, X is re-ordered
lexicographically by (leftmost position, rightmost position) of its interval;
the combined structure is what the solver and decomposition consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from typing import NamedTuple, Sequence

from .errors import CapacityError, ContractError, InputError
from .graph import BipartiteGraph

__all__ = [
    "ConvexityCheck",
    "LexConvexOrdering",
    "validate_convex_ordering",
    "compute_lex_convex_ordering",
    "find_convex_ordering_exhaustive",
    "ensure_valid_lex_ordering",
    "identity_permutation",
]

EXHAUSTIVE_Y_LIMIT = 10

Interval = tuple[int, int, int]  # (left position, right position, x-index)


class ConvexityCheck(NamedTuple):
    """Outcome of a convexity validation: on failure, the smallest violating
    x-index and the first gap position inside its would-be interval."""

    ok: bool
    violator: int | None
    gap_position: int | None


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def _positions(yperm: Sequence[int], n: int) -> list[int]:
    """``ypos[j]`` is the position of y_j under yperm (index 0 unused)."""
    if len(yperm) != n or sorted(yperm) != list(range(1, n + 1)):
        raise InputError(f"yperm is not a permutation of 1..{n}: {tuple(yperm)!r}")
    ypos = [0] * (n + 1)
    for p, j in enumerate(yperm, start=1):
        ypos[j] = p
    return ypos


def _intervals(g: BipartiteGraph, ypos: list[int]) -> tuple[list[Interval], ConvexityCheck]:
    """(left, right, x) for every non-isolated x in index order, stopping at
    the first x whose neighbourhood leaves a gap under ypos."""
    found: list[Interval] = []
    for i, nb in enumerate(g.adj_x, start=1):
        if not nb:
            continue
        ps = [ypos[j] for j in nb]
        lo, hi = min(ps), max(ps)
        if hi - lo + 1 != len(ps):
            have = set(ps)
            gap = next(p for p in range(lo, hi + 1) if p not in have)
            return found, ConvexityCheck(False, i, gap)
        found.append((lo, hi, i))
    return found, ConvexityCheck(True, None, None)


def validate_convex_ordering(g: BipartiteGraph, yperm: Sequence[int]) -> ConvexityCheck:
    """Check that every N(x) is contiguous under yperm.

    Reports the smallest violating x-index together with the first uncovered
    position inside its interval span.
    """
    return _intervals(g, _positions(yperm, g.n2))[1]


@dataclass(frozen=True)
class LexConvexOrdering:
    """A convex ordering of Y plus the lexicographic re-ordering of X, tied to
    the graph it was built from.

    Only ``graph`` and ``yperm`` are inputs.  Construction checks convexity
    (InputError on a gap) and derives every other field in the same pass, so
    an ordering always agrees with its graph.

    ``intervals`` lists ``(left, right, x)`` Y-position intervals of the
    non-isolated X vertices in lexicographic order.  ``left_x[k]`` /
    ``right_x[k]`` give the interval of the x vertex at position k+1 (None
    for isolated vertices, which sit at the front of xperm).  ``left_y`` /
    ``right_y`` give, for each Y-position, the minimum and maximum
    X-positions among its neighbours; they are computed when first read, and
    no contiguity is implied on the X side.
    """

    graph: BipartiteGraph = field(repr=False)
    yperm: tuple[int, ...]
    xperm: tuple[int, ...] = field(init=False, compare=False)
    left_x: tuple[int | None, ...] = field(init=False, repr=False, compare=False)
    right_x: tuple[int | None, ...] = field(init=False, repr=False, compare=False)
    intervals: tuple[Interval, ...] = field(init=False, repr=False, compare=False)
    _ypos: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.graph
        ypos = _positions(self.yperm, g.n2)
        found, check = _intervals(g, ypos)
        if not check.ok:
            raise InputError(
                f"yperm is not a convex ordering: N(x{check.violator}) has a gap "
                f"at position {check.gap_position}"
            )
        found.sort()
        isolated = tuple(i for i, nb in enumerate(g.adj_x, start=1) if not nb)
        blank = (None,) * len(isolated)
        derived = {
            "yperm": tuple(self.yperm),
            "xperm": isolated + tuple(e[2] for e in found),
            "left_x": blank + tuple(e[0] for e in found),
            "right_x": blank + tuple(e[1] for e in found),
            "intervals": tuple(found),
            "_ypos": tuple(ypos),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def y_position(self, j: int) -> int:
        return self._ypos[j]

    @cached_property
    def left_y(self) -> tuple[int | None, ...]:
        return self._x_ends(min)

    @cached_property
    def right_y(self) -> tuple[int | None, ...]:
        return self._x_ends(max)

    def _x_ends(self, pick) -> tuple[int | None, ...]:
        xpos = {i: p for p, i in enumerate(self.xperm, start=1)}
        return tuple(
            pick((xpos[i] for i in self.graph.neighbors_y(j)), default=None)
            for j in self.yperm
        )


def compute_lex_convex_ordering(g: BipartiteGraph, yperm: Sequence[int]) -> LexConvexOrdering:
    """Validate yperm and sort X by (left, right), ties by original index.

    Isolated x vertices carry no interval and are placed at the front.  Runs
    in O(m + n1 log n1).
    """
    return LexConvexOrdering(g, yperm)


def find_convex_ordering_exhaustive(g: BipartiteGraph) -> tuple[int, ...] | None:
    """Search all permutations of Y; return the lexicographically least convex
    one, or None when the graph is not convex on Y.

    Test oracle only: capped at n2 <= 10; larger graphs must declare an
    ordering in their input file.
    """
    if g.n2 > EXHAUSTIVE_Y_LIMIT:
        raise CapacityError(
            f"exhaustive ordering search is capped at n2={EXHAUSTIVE_Y_LIMIT} "
            f"(got {g.n2}); supply a yorder declaration instead"
        )
    for perm in permutations(range(1, g.n2 + 1)):
        if validate_convex_ordering(g, perm).ok:
            return tuple(perm)
    return None


def ensure_valid_lex_ordering(g: BipartiteGraph, ordering: LexConvexOrdering) -> None:
    """Check that an ordering is paired with the graph it was built from.

    A LexConvexOrdering is validated when it is built and derives all its
    fields from its own graph, so the only way to misuse one is to hand it
    to a function together with a different graph.  Raises ContractError
    when ``ordering.graph`` is not equal to g.
    """
    if ordering.graph != g:
        raise ContractError("the ordering was built for a different graph")
