"""Exact and baseline solvers for minimum vertex-edge domination on convex
bipartite graphs.

The exact solver walks the ordering: either commit the farthest-reaching
neighbour of the first Y vertex (an X pivot) and continue past everything it
dominates, or commit a Y vertex that additionally covers every stranded X
vertex of the first peel (a Y blanket) and continue past its reach; the
smaller branch wins.  Universal vertices and edgeless remainders end a
branch, disconnected remainders split and sum, and states are memoised per
connected piece so the work stays polynomial.

Inside a connected piece a state is asked for as (floor, start): its front,
the intervals containing start with left end > floor, plus every interval
starting after start.  The front is one window of the piece's sorted
intervals (``chains._Component``, whose x_pivot walk is also ``decompose``),
those with floor < left <= start; its largest and least (right, x) give the
pivot and the label vertex.  Start and the front's first interval name the
state and key the memo: floors that keep the same intervals share one state
and one trace step.  Only a split builds an interval list.  States are
evaluated on an explicit stack, so deep instances need no deep Python
recursion and no change to the interpreter's recursion limit.

The baseline solver picks one pivot per chain of the chain decomposition.
It always yields a valid VED-set but is not always minimum;
``counterexample_graph`` is a six-vertex instance where it returns two
vertices while the optimum is one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple

from .chains import _Component, _coverage_runs, decompose
from .errors import ContractError
from .graph import BipartiteGraph, VertexRef, build_graph, xref, yref
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


# A witness is a cons list of ("x", index) / ("y", position) items, flattened
# once by solve_exact.
_Witness = tuple[tuple[str, int], "_Witness"] | None


_Request = tuple[_Component, int, int]  # (component, start, floor)


def _evaluate(
    comp: _Component,
    start: int,
    front: list[Interval],
    yname: Callable[[int], str],
    trace: list[TraceStep],
) -> Generator[_Request, tuple[int, _Witness], tuple[int, _Witness]]:
    """Count and witness of the state holding ``front`` (the intervals of
    ``comp.front(start, floor)``) and every interval starting after start.

    Yields each child state it needs as (component, start, floor) and is sent
    back that state's (count, witness); appends its own trace step last.
    """
    entries, lefts, sufmin = comp.entries, comp.lefts, comp.sufmin
    n = len(entries)
    b = bisect_right(lefts, start)  # entries[b:] start after `start`
    if front:
        first_reach, first_x = min((e[1], e[2]) for e in front)
        reach, pivot = max((e[1], e[2]) for e in front)
    elif b == n:
        return 0, None
    else:
        first_x = entries[b][2]
    label = (f"x{first_x}", yname(start))
    if not front or comp.cut[b] >= reach:
        # Disconnected, or not reaching yhi: solve each run as a fresh piece.
        xs = sorted((start, e[1], e[2]) for e in front) + entries[b:]
        count, witness = 0, None
        for run, lo, hi in _coverage_runs(xs):
            run_count, run_witness = yield _Component(run, lo, hi), lo, lo - 1
            count += run_count
            while run_witness is not None:
                item, run_witness = run_witness
                witness = (item, witness)
        trace.append(TraceStep(label, "split", None))
        return count, witness

    if reach == comp.yhi:
        # The pivot's interval spans the whole remaining Y side.
        trace.append(TraceStep(label, "universal", f"x{pivot}"))
        return 1, (("x", pivot), None)
    # b < n here: with nothing starting after `start`, the front reaches yhi.
    max_left = lefts[-1]
    min_right = min(first_reach, sufmin[b])
    if max_left <= min_right:
        trace.append(TraceStep(label, "universal", yname(max_left)))
        return 1, (("y", max_left), None)

    # The blanket is the least right end; it covers exactly the intervals
    # starting no later than it, so it fails iff a stranded interval (one
    # ending within the pivot's reach) starts after it.
    blanket = min_right
    d = bisect_right(lefts, blanket)
    # Every front interval ends by `reach`, so past it the intervals left of
    # `start` are gone and `start` serves as the child's floor.
    count, witness = yield comp, reach + 1, start
    best_count = 1 + count
    best_wit = (("x", pivot), witness)
    best_branch = "x_pivot"
    best_chosen = f"x{pivot}"
    if sufmin[d] > reach:
        count, witness = (yield comp, lefts[d], blanket) if d < n else (0, None)
        if 1 + count < best_count:
            best_count = 1 + count
            best_wit = (("y", blanket), witness)
            best_branch = "y_blanket"
            best_chosen = yname(blanket)
    trace.append(TraceStep(label, best_branch, best_chosen))
    return best_count, best_wit


def _solve(
    root: _Component,
    yname: Callable[[int], str],
    trace: list[TraceStep],
    memoize: bool,
) -> tuple[int, _Witness]:
    """Evaluate ``root``'s first state on an explicit stack of suspended
    ``_evaluate`` calls: each request (floor, start) is turned into its front
    once and keyed by start and the front's first interval; memo hits are
    answered at once, misses pushed."""
    frames: list[tuple[Generator, dict, tuple[int, Interval | None]]] = []
    request: _Request | None = (root, root.ylo, root.ylo - 1)
    reply = None
    while True:
        if request is not None:
            comp, start, floor = request
            front = comp.front(start, floor)
            key = (start, front[0] if front else None)
            reply = comp.memo.get(key) if memoize else None
            if reply is None:
                frames.append((_evaluate(comp, start, front, yname, trace), comp.memo, key))
        gen, memo, key = frames[-1]
        try:
            request = gen.send(reply)
        except StopIteration as done:
            frames.pop()
            reply, request = done.value, None
            if memoize:
                memo[key] = reply
            if not frames:
                return reply


def solve_exact(
    g: BipartiteGraph, ordering: LexConvexOrdering, *, memoize: bool = True
) -> SolveResult:
    """Minimum VED-set of a convex bipartite graph under a declared ordering.

    Disconnected graphs split into components (the count is additive).  The
    witness is checked with ``ordering.dominated_by`` before return, in
    O(n1 + n2); a failed check raises ContractError, under ``python -O`` too.
    """
    ensure_valid_lex_ordering(g, ordering)
    if not ordering.intervals:
        return SolveResult(0, frozenset(), ())

    def yname(position: int) -> str:
        return f"y{ordering.yperm[position - 1]}"

    trace: list[TraceStep] = []
    total = 0
    picked: list[tuple[str, int]] = []
    for run, lo, hi in _coverage_runs(ordering.intervals):
        count, witness = _solve(_Component(run, lo, hi), yname, trace, memoize)
        total += count
        while witness is not None:
            item, witness = witness
            picked.append(item)
    witness_set = frozenset(
        xref(idx) if side == "x" else yref(ordering.yperm[idx - 1])
        for side, idx in picked
    )
    if len(witness_set) != total or not ordering.dominated_by(witness_set):
        raise ContractError(f"solve_exact built an invalid witness of size {total}")
    return SolveResult(total, witness_set, tuple(trace))


def solve_baseline(g: BipartiteGraph, ordering: LexConvexOrdering) -> SolveResult:
    """One pivot per chain of ``decompose(g, ordering)``: the
    farthest-reaching neighbour of each chain's first Y vertex.

    The result is always a valid VED-set (checked here, as in
    ``solve_exact``) but not always a minimum one; see
    ``counterexample_graph``.
    """
    decomp = decompose(g, ordering)
    if not ordering.intervals:
        raise ContractError("baseline requires at least one edge")
    witness = frozenset(xref(i) for i in decomp.pivots)
    if not ordering.dominated_by(witness):
        raise ContractError("solve_baseline built an invalid witness")
    return SolveResult(len(witness), witness, ())
