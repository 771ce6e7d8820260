"""Exact and baseline solvers for minimum vertex-edge domination on convex
bipartite graphs.

The exact solver recurses on the ordering: either commit the
farthest-reaching neighbour of the first Y vertex (an X pivot) and continue
past everything it dominates, or commit a Y vertex that additionally covers
every stranded X vertex of the first peel (a Y blanket) and continue past its
reach; the smaller branch wins.  Universal vertices and edgeless remainders
terminate the recursion, disconnected remainders split and sum, and states
are memoised per component so the recursion stays polynomial.

The baseline solver picks one pivot per chain of the chain decomposition.
It always yields a valid VED-set but is not always minimum;
``counterexample_graph`` is a six-vertex instance where it returns two
vertices while the optimum is one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .chains import _coverage_runs, _peel, decompose
from .errors import ContractError
from .graph import (
    BipartiteGraph,
    VertexRef,
    build_graph,
    is_ve_dominating_set,
    xref,
    yref,
)
from .ordering import Interval, LexConvexOrdering, ensure_valid_lex_ordering

__all__ = [
    "TraceStep",
    "SolveResult",
    "solve_exact",
    "solve_baseline",
    "counterexample_graph",
]


class TraceStep(NamedTuple):
    """One recursion decision: the subproblem's first retained vertices, the
    branch taken, and the vertex committed (when any)."""

    subproblem: tuple[str, str]
    branch: str
    chosen: str | None


@dataclass(frozen=True)
class SolveResult:
    gamma_ve: int
    witness: frozenset[VertexRef]
    trace: tuple[TraceStep, ...]


def counterexample_graph() -> BipartiteGraph:
    """Six-vertex convex graph on which the chain-pivot baseline returns a
    two-vertex set while a single vertex suffices."""
    return build_graph(3, 3, [(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)])


def _solve_runs(
    runs: list[tuple[list[Interval], int, int]],
    yname: Callable[[int], str],
    trace: list[TraceStep],
    memoize: bool,
) -> tuple[int, tuple[tuple[str, int], ...]]:
    """Sum of count and witness over independent coverage runs."""
    total = 0
    picked: tuple[tuple[str, int], ...] = ()
    for members, lo, hi in runs:
        cnt, wit = _solve_component(members, lo, hi, yname, trace, memoize)
        total += cnt
        picked += wit
    return total, picked


def _solve_component(
    entries: list[Interval],
    ylo: int,
    yhi: int,
    yname: Callable[[int], str],
    trace: list[TraceStep],
    memoize: bool,
) -> tuple[int, tuple[tuple[str, int], ...]]:
    """Count and witness for one connected piece, working purely on intervals.

    ``entries`` are sorted, with every interval inside [ylo, yhi] and every
    Y-position in range covered.  Every state's list is clipped to its start:
    no left end lies before it.  Witness entries come back as ("x", index) /
    ("y", position) pairs.

    Subproblems inside one component are always "keep intervals reaching past
    a Y threshold" (x-pivot step) or "keep intervals starting past a Y
    threshold" (y-blanket step); the pair of thresholds identifies the state,
    so memoisation keys on it.  Both steps advance the Y start strictly, which
    bounds the recursion.
    """
    memo: dict[tuple[int, int], tuple[int, tuple[tuple[str, int], ...]]] = {}

    def solve(
        xs: list[Interval], start: int, floor: int
    ) -> tuple[int, tuple[tuple[str, int], ...]]:
        key = (floor, start)
        if memoize:
            hit = memo.get(key)
            if hit is not None:
                return hit
        res = evaluate(xs, start, floor)
        if memoize:
            memo[key] = res
        return res

    def evaluate(
        xs: list[Interval], start: int, floor: int
    ) -> tuple[int, tuple[tuple[str, int], ...]]:
        if not xs:
            return 0, ()
        label = (f"x{xs[0][2]}", yname(start))
        runs = _coverage_runs(xs)
        if len(runs) > 1 or runs[0][1] != start or runs[0][2] != yhi:
            res = _solve_runs(runs, yname, trace, memoize)
            trace.append(TraceStep(label, "split", None))
            return res

        first_reach = xs[0][1]
        front, stranded, future = _peel(xs)
        pivot = front[-1]
        reach = pivot[1]
        if reach == yhi:
            # The pivot's interval spans the whole remaining Y side.
            trace.append(TraceStep(label, "universal", f"x{pivot[2]}"))
            return 1, (("x", pivot[2]),)
        max_left = xs[-1][0]
        min_right = min(e[1] for e in xs)
        if max_left <= min_right:
            trace.append(TraceStep(label, "universal", yname(max_left)))
            return 1, (("y", max_left),)

        blanket: int | None
        if stranded:
            blanket = min(first_reach, min(e[1] for e in stranded))
            if blanket < max(e[0] for e in stranded):
                blanket = None
        else:
            blanket = first_reach

        cnt, wit = solve(future, reach + 1, floor)
        best_count = 1 + cnt
        best_wit = wit + (("x", pivot[2]),)
        best_branch = "x_pivot"
        best_chosen = f"x{pivot[2]}"
        if blanket is not None:
            # Every interval here ends at or after the blanket, so the ones
            # it covers are exactly those starting no later than it.
            after = [e for e in xs if e[0] > blanket]
            if after:
                cnt2, wit2 = solve(after, after[0][0], blanket)
            else:
                cnt2, wit2 = 0, ()
            if 1 + cnt2 < best_count:
                best_count = 1 + cnt2
                best_wit = wit2 + (("y", blanket),)
                best_branch = "y_blanket"
                best_chosen = yname(blanket)
        trace.append(TraceStep(label, best_branch, best_chosen))
        return best_count, best_wit

    return solve(entries, ylo, ylo - 1)


def solve_exact(
    g: BipartiteGraph, ordering: LexConvexOrdering, *, memoize: bool = True
) -> SolveResult:
    """Minimum VED-set of a convex bipartite graph under a declared ordering.

    Disconnected graphs split into components (the count is additive); the
    witness is verified against the edge-domination definition before return.
    """
    ensure_valid_lex_ordering(g, ordering)
    if not ordering.intervals:
        return SolveResult(0, frozenset(), ())

    def yname(position: int) -> str:
        return f"y{ordering.yperm[position - 1]}"

    needed = 4 * (g.n1 + g.n2) + 1000
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)
    trace: list[TraceStep] = []
    total, picked = _solve_runs(_coverage_runs(ordering.intervals), yname, trace, memoize)
    witness = frozenset(
        xref(idx) if side == "x" else yref(ordering.yperm[idx - 1])
        for side, idx in picked
    )
    assert len(witness) == total and is_ve_dominating_set(g, witness)
    return SolveResult(total, witness, tuple(trace))


def solve_baseline(g: BipartiteGraph, ordering: LexConvexOrdering) -> SolveResult:
    """One pivot per chain of ``decompose(g, ordering)``: the
    farthest-reaching neighbour of each chain's first Y vertex.

    The result is always a valid VED-set (verified here) but not always a
    minimum one; see ``counterexample_graph``.
    """
    decomp = decompose(g, ordering)
    if not ordering.intervals:
        raise ContractError("baseline requires at least one edge")
    witness = frozenset(xref(i) for i in decomp.pivots)
    assert is_ve_dominating_set(g, witness)
    return SolveResult(len(witness), witness, ())
