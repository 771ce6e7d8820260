"""Exact and baseline solvers for minimum vertex-edge domination on convex
bipartite graphs.

The exact solver walks the ordering: either commit the farthest-reaching
neighbour of the first Y vertex (an X pivot) and continue past everything it
dominates, or commit a Y vertex that additionally covers every stranded X
vertex of the first peel (a Y blanket) and continue past its reach; the
smaller branch wins, the pivot on a tie.

The sweep reads the sorted ``ordering.intervals`` through
``chains._window``; its x_pivot walk alone is ``chains._peels``, which
``decompose`` and the baseline share.  A request (start, lo) asks for a
state: its front is the intervals of the window ``entries[lo:b]`` that
contain start, b being the first interval starting after start.  The state
is every interval of ``entries[f:]`` whose right end is at least start, f
being the front's first interval, so requests whose fronts agree share one
state.

The branch looks only at the state's first overlap run C, the one holding
start.  The rest R lies right of C's last position, so both children keep
all of R, both counts include gamma_ve(R), and C alone decides: no state
splits into runs.  A pivot reaching C's end ties with the blanket; its
child, where no interval holds the start, is refiled at R's first interval
or is the empty state 0.  When some Y position lies in every interval of C,
the blanket beats a pivot short of C's end, and commits the first such
position, C's last left end.

Every child starts after its parent: a forward sweep takes the requests in
increasing start and records each new state's pivot, blanket and child
requests, a backward sweep fills in the counts, and the witness follows the
chosen branches from the root.  A state is named by its start and its first
front interval, which holds that start: at most m states and 2 states + 1
requests, each resolved in O(n1), so O(m n1) in all.

The baseline solver takes the pivot of each chain that ``chains._peels``
peels off the ordering's intervals.  It always yields a valid VED-set but is
not always minimum; ``counterexample_graph`` is a six-vertex instance where it
returns two vertices while the optimum is one.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

from .chains import _peels, _window
from .errors import ContractError
from .graph import BipartiteGraph, VertexRef, build_graph, xref, yref
from .ordering import LexConvexOrdering, ensure_valid_lex_ordering

__all__ = [
    "TraceStep",
    "SolveStats",
    "SolveResult",
    "solve_exact",
    "solve_baseline",
    "counterexample_graph",
]


class TraceStep(NamedTuple):
    """One state's decision: the state's first retained vertices, the branch
    taken, and the vertex committed."""

    subproblem: tuple[str, str]
    branch: str
    chosen: str


class SolveStats(NamedTuple):
    """Counts of one exact solve: distinct states, requests for them (memo
    hits are requests - states), and states by the branch they took."""

    states: int
    requests: int
    x_pivot: int
    y_blanket: int


class SolveResult(NamedTuple):
    gamma_ve: int
    witness: frozenset[VertexRef]
    trace: tuple[TraceStep, ...]
    stats: SolveStats | None = None


def counterexample_graph() -> BipartiteGraph:
    """Six-vertex convex graph on which the chain-pivot baseline returns a
    two-vertex set while a single vertex suffices."""
    return build_graph(3, 3, [(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)])


_RIGHT_X = itemgetter(1, 2)


def solve_exact(
    g: BipartiteGraph, ordering: LexConvexOrdering, *, trace: bool = False
) -> SolveResult:
    """Minimum VED-set of a convex bipartite graph under a declared ordering.

    The witness is checked with ``ordering.dominated_by`` before return, in
    O(n1 + n2); a failed check raises ContractError, under ``python -O`` too.
    ``trace=True`` also lists the decisions as ``TraceStep``s, one per state
    in increasing start (otherwise no label is built); ``stats`` is always set.
    """
    ensure_valid_lex_ordering(g, ordering)
    if not ordering.intervals:
        return SolveResult(0, frozenset(), (), SolveStats(0, 0, 0, 0))
    yperm = ordering.yperm

    def yname(position: int) -> str:
        return f"y{yperm[position - 1]}"

    entries = ordering.intervals
    lefts = [e[0] for e in entries]
    n = len(entries)
    # sufmin[i]: the least right end in entries[i:], n2 + 1 past the end.
    sufmin = list(accumulate((e[1] for e in reversed(entries)), min, initial=g.n2 + 1))[::-1]
    # req[r]: the index request r's window begins at until the sweep
    # resolves it, then its state.  Request 0 and state 0 are the empty
    # remainder, request 1 the root.  rows[s] = (pivot, blanket, x_pivot
    # child request, y_blanket child request or -1); labels[s - 1] is state
    # s's trace label.  filed[start]: the requests at start, each filed
    # ahead of the loop, since children start after their parent.
    req, rows, labels = [0, 0], [(0, 0, 0, -1)], []
    filed: list[list[int]] = [[] for _ in range(g.n2 + 2)]
    filed[lefts[0]].append(1)
    for start, rids in enumerate(filed):
        if not rids:
            continue
        # seen[lo]: the state of the requests whose window begins at lo;
        # seen[f]: the state whose front begins at f (len(rows) when new, 0
        # at n).  A window begun at f has the front of f, so the two never
        # disagree, and a window asked for again is not read again.
        seen = {n: 0}
        for rid in rids:
            lo = req[rid]
            sid = seen.get(lo)
            if sid is None:
                f, b = _window(entries, lefts, lo, start)
                if f == b < n:
                    # No interval holds start: its run has ended, and what
                    # is left is entries[b:], first held at lefts[b].
                    req[rid] = b
                    filed[lefts[b]].append(rid)
                    continue
                sid = seen[lo] = seen.setdefault(f, len(rows))
            req[rid] = sid
            if sid < len(rows):
                continue
            # Mostly the front is the one interval entries[f].
            if b - f == 1:
                first = top = entries[f]
            else:
                front = [e for e in entries[f:b] if e[1] >= start]
                first, top = min(front, key=_RIGHT_X), max(front, key=_RIGHT_X)
            _, reach, pivot = top
            if trace:
                labels.append((f"x{first[2]}", yname(start)))
            # The blanket is the least right end; it covers exactly the
            # intervals starting no later than it, so it fails iff a
            # stranded interval (one ending within the pivot's reach) starts
            # after it.  Past reach the intervals left of start are gone, so
            # the x_pivot child's window begins at b.
            blanket = first[1] if first[1] < sufmin[b] else sufmin[b]
            d = bisect_right(lefts, blanket, b)
            xchild = len(req)
            req.append(b)
            filed[reach + 1].append(xchild)
            ychild = -1
            if sufmin[d] > reach:
                ychild = 0
                if d < n:
                    ychild = len(req)
                    req.append(d)
                    filed[lefts[d]].append(ychild)
                # Intervals up to d all ending before lefts[d] (the last one
                # tested first) are the rest of their run: take lefts[d - 1].
                if d == n or entries[d - 1][1] < lefts[d] > max(e[1] for e in entries[f:d]):
                    blanket = lefts[d - 1]
            rows.append((pivot, blanket, xchild, ychild))

    # Backward: each state's count, and whether it takes its blanket.
    count = [0] * len(rows)
    took = bytearray(len(rows))
    for sid in range(len(rows) - 1, 0, -1):
        _, _, xchild, ychild = rows[sid]
        c = count[req[xchild]]
        if ychild >= 0 and count[req[ychild]] < c:
            c = count[req[ychild]]
            took[sid] = 1
        count[sid] = c + 1

    witness, sid = [], req[1]
    while sid:
        x, y, xchild, ychild = rows[sid]
        witness.append(yref(yperm[y - 1]) if took[sid] else xref(x))
        sid = req[ychild if took[sid] else xchild]
    total = count[req[1]]
    witness_set = frozenset(witness)
    if len(witness_set) != total or not ordering.dominated_by(witness_set):
        raise ContractError(f"solve_exact built an invalid witness of size {total}")

    blankets = sum(took)
    stats = SolveStats(len(rows) - 1, len(req) - 1, len(rows) - 1 - blankets, blankets)
    steps = tuple(
        TraceStep(label, *(("y_blanket", yname(y)) if took[sid] else ("x_pivot", f"x{x}")))
        for sid, (label, (x, y, _, _)) in enumerate(zip(labels, rows[1:]), start=1)
    )
    return SolveResult(total, witness_set, steps, stats)


def solve_baseline(g: BipartiteGraph, ordering: LexConvexOrdering) -> SolveResult:
    """One pivot per chain: the farthest-reaching neighbour of each chain's
    first Y vertex, read off ``chains._peels``.

    The result is always a valid VED-set (checked here, as in
    ``solve_exact``) but not always a minimum one; see
    ``counterexample_graph``.  An edgeless graph gives the empty set.
    """
    ensure_valid_lex_ordering(g, ordering)
    witness = frozenset(xref(pivot) for _, _, pivot, _, _ in _peels(ordering.intervals))
    if not ordering.dominated_by(witness):
        raise ContractError("solve_baseline built an invalid witness")
    return SolveResult(len(witness), witness, ())
