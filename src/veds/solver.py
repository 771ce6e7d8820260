"""Exact and baseline solvers for minimum vertex-edge domination on convex
bipartite graphs.

The exact solver walks the ordering: either commit the farthest-reaching
neighbour of the first Y vertex (an X pivot) and continue past everything it
dominates, or commit a Y vertex that additionally covers every stranded X
vertex of the first peel (a Y blanket) and continue past its reach; the
smaller branch wins, the pivot on a tie.  Universal vertices end a branch,
disconnected remainders split and sum, states are shared within a connected
piece, and each piece is solved once, however many splits reach it.

A connected piece is a ``chains._Component``, whose x_pivot walk is also
``decompose``.  A state is asked for by a request (start, lo): its front is
the intervals of the window ``entries[lo:b]`` that contain start, b being
the first interval starting after start, and it holds every interval
starting after start too.  Start and the front's first interval name the
state, so requests whose fronts agree share one state.

Every child state starts strictly after its parent, so a piece is solved in
two sweeps over flat tables.  The forward sweep takes requests in
increasing start and records each new state's kind, committed vertices and
child requests, filing each child under its start: the x_pivot child's
window begins at the parent's b, the y_blanket child's at the first
interval past the blanket.  A split's runs are pieces, memoised under their
intervals: a run met before gets the root request it was queued with.  The
pieces are swept from a heap in increasing first Y position, so deep
instances need no Python recursion, and a split, whose runs start after its
own piece does, is created before every state it reads.  The backward sweep
fills in the counts in reverse creation order, and the witness follows the
chosen branches from the roots.

The bound.  A state at start s keeps the intervals of its piece with
left > F and right >= s, for some F < s.  So every piece is the first
overlap run of the graph's intervals with left > F and right >= s, clipped
to start at s, for some 0 <= F < s <= n2: at most n2 (n2 + 1) / 2 distinct
pieces.  A piece's states at one start differ in their first front
interval, which contains the start, so a piece holds at most m states, and
a solve at most m n2 (n2 + 1) / 2 <= (n + m)^3, each built in O(n1 log n1).
On the split-heavy tiled graphs of ``tools/hostile.py`` the count grows
about quadratically.

``solve_exact(g, ordering, trace=True)`` also lists the decisions as
``TraceStep``s, one per state in the order the forward sweep creates them:
each piece in increasing start, the pieces in increasing first Y position,
so a piece that several splits share lists its steps once.  Without it no
label is built.  ``SolveResult.stats`` holds counts read off the tables.

The baseline solver takes the pivot of each chain that ``chains._peels``
peels off each connected piece.  It always yields a valid VED-set but is not
always minimum; ``counterexample_graph`` is a six-vertex instance where it
returns two vertices while the optimum is one.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .chains import _Component, _coverage_runs, _peels
from .errors import ContractError
from .graph import BipartiteGraph, VertexRef, build_graph, xref, yref
from .ordering import Interval, LexConvexOrdering, ensure_valid_lex_ordering

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
    taken, and the vertex committed (when any)."""

    subproblem: tuple[str, str]
    branch: str
    chosen: str | None


class SolveStats(NamedTuple):
    """Counts of one exact solve: distinct states, requests for them (memo
    hits are requests - states), states by the branch they took, and the
    distinct connected pieces swept (the graph's components and the runs
    that splits build, each once however many splits reach it)."""

    states: int
    requests: int
    x_pivot: int
    y_blanket: int
    universal: int
    split: int
    components: int


class SolveResult(NamedTuple):
    gamma_ve: int
    witness: frozenset[VertexRef]
    trace: tuple[TraceStep, ...]
    stats: SolveStats | None = None


def counterexample_graph() -> BipartiteGraph:
    """Six-vertex convex graph on which the chain-pivot baseline returns a
    two-vertex set while a single vertex suffices."""
    return build_graph(3, 3, [(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)])


_PIVOT, _UNIVERSAL, _SPLIT = 0, 1, 2  # state kinds; a _PIVOT state takes x_pivot or y_blanket
_RIGHT_X = itemgetter(1, 2)


class _Sweep:
    """Flat tables of one exact solve, over every piece it sweeps.

    Request r asks for a state at some start; ``req[r]`` is the index its
    window begins at until the forward sweep resolves it, then that state's
    number, which is all the backward sweep and the witness read.  State s is
    ``rows[s]`` = (kind, pivot, Y position, x_pivot child request,
    y_blanket child request), the Y position being the blanket or the
    universal Y vertex; an unused vertex is 0 and an unused child -1.  A
    split's run roots are ``runs[s]``.  ``roots`` maps each piece's
    intervals to its root request, so a piece is queued once.  The pieces
    are swept in increasing ylo, and a split's runs start after its own
    piece's ylo, so a state is created before every state it reads, in its
    own piece or in a run.  Request 0 and state 0 stand for the empty
    remainder (a split into no runs) that a blanket reaching past the last
    interval leaves; ``stats`` counts neither.  With ``yname`` set,
    ``labels[s]`` is state s's trace label.
    """

    def __init__(self, yname: Callable[[int], str] | None) -> None:
        self.req = [0]
        self.rows = [(_SPLIT, 0, 0, -1, -1)]
        self.runs: dict[int, list[int]] = {0: []}
        self.yname = yname
        self.labels: list | None = [None] if yname else None
        self.roots: dict[tuple[Interval, ...], int] = {}
        self.work: list[tuple[int, int, _Component]] = []  # heap of (ylo, root, piece)

    def piece(self, entries: list[Interval], ylo: int, yhi: int) -> int:
        """The root request of the piece of these intervals, queued when
        new.  A run's intervals fix its ylo and yhi."""
        key = tuple(entries)
        rid = self.roots.get(key)
        if rid is None:
            rid = self.roots[key] = len(self.req)
            self.req.append(0)
            heappush(self.work, (ylo, rid, _Component(entries, ylo, yhi)))
        return rid

    def forward(self) -> None:
        """Sweep every queued piece, and the pieces its splits queue, in
        increasing ylo."""
        while self.work:
            _, root, comp = heappop(self.work)
            self._sweep(comp, root)

    def _sweep(self, comp: _Component, root: int) -> None:
        entries, lefts, sufmin, cut = comp.entries, comp.lefts, comp.sufmin, comp.cut
        ylo, yhi, n, max_left = comp.ylo, comp.yhi, len(comp.entries), comp.lefts[-1]
        window = comp.window
        req = self.req
        rows, labels, yname = self.rows, self.labels, self.yname
        # filed[start - ylo]: the requests at start.  Children start after
        # their parent and by yhi, so each is filed ahead of the loop, which
        # reads every slot once.
        filed: list[list[int]] = [[] for _ in range(yhi - ylo + 1)]
        filed[0].append(root)
        for start, rids in enumerate(filed, ylo):
            if not rids:
                continue
            # seen[lo]: the state of the requests whose window begins at lo;
            # seen[f]: the state whose front begins at f, numbered len(rows)
            # when new.  A window begun at f has the front of f, so the two
            # never disagree, and a window asked for again is not read again.
            seen: dict[int, int] = {}
            for rid in rids:
                lo = req[rid]
                sid = seen.get(lo)
                if sid is None:
                    f, b = window(lo, start)
                    sid = seen[lo] = seen.setdefault(f, len(rows))
                req[rid] = sid
                if sid < len(rows):
                    continue
                # The front is never empty: a root's holds the interval at
                # ylo, an x_pivot child's the interval that keeps the
                # piece connected past reach, a y_blanket child's
                # entries[d].  Mostly it is the one interval entries[f].
                if b - f == 1:
                    first = top = entries[f]
                else:
                    front = [e for e in entries[f:b] if e[1] >= start]
                    first, top = min(front, key=_RIGHT_X), max(front, key=_RIGHT_X)
                _, reach, pivot = top
                if labels is not None:
                    labels.append((f"x{first[2]}", yname(start)))
                if cut[b] >= reach:
                    # Disconnected, or not reaching yhi: each run is a
                    # piece, solved once however many splits reach it.
                    clipped = [(start, e[1], e[2]) for e in entries[f:b] if e[1] >= start]
                    xs = sorted(clipped) + entries[b:]
                    self.runs[sid] = [self.piece(*run) for run in _coverage_runs(xs)]
                    rows.append((_SPLIT, 0, 0, -1, -1))
                elif reach == yhi:
                    rows.append((_UNIVERSAL, pivot, 0, -1, -1))
                elif max_left <= first[1] and max_left <= sufmin[b]:
                    rows.append((_UNIVERSAL, 0, max_left, -1, -1))
                else:
                    # The blanket is the least right end; it covers
                    # exactly the intervals starting no later than it, so
                    # it fails iff a stranded interval (one ending within
                    # the pivot's reach) starts after it.  Past reach the
                    # intervals left of start are gone, so the x_pivot
                    # child's window begins at b.
                    blanket = first[1] if first[1] < sufmin[b] else sufmin[b]
                    d = bisect_right(lefts, blanket, b)
                    xchild = len(req)
                    req.append(b)
                    filed[reach + 1 - ylo].append(xchild)
                    ychild = -1
                    if sufmin[d] > reach:
                        ychild = 0
                        if d < n:
                            ychild = len(req)
                            req.append(d)
                            filed[lefts[d] - ylo].append(ychild)
                    rows.append((_PIVOT, pivot, blanket, xchild, ychild))

    def backward(self) -> tuple[list[int], bytearray]:
        """Each state's count, and whether it takes its blanket."""
        rows, state, runs = self.rows, self.req, self.runs
        count = [1] * len(rows)
        blanket = bytearray(len(rows))
        for sid in range(len(rows) - 1, -1, -1):
            kind, _, _, xchild, ychild = rows[sid]
            if kind == _PIVOT:
                c = count[state[xchild]]
                if ychild >= 0 and count[state[ychild]] < c:
                    c = count[state[ychild]]
                    blanket[sid] = 1
                count[sid] = c + 1
            elif kind == _SPLIT:
                count[sid] = sum(count[state[r]] for r in runs[sid])
        return count, blanket

    def trace(self, blanket: bytearray) -> Iterator[TraceStep]:
        """Each state's step, in the order the forward sweep created it."""
        rows, labels, yname = self.rows, self.labels, self.yname
        for sid in range(1, len(rows)):
            kind, x, y, _, _ = rows[sid]
            if kind == _SPLIT:
                yield TraceStep(labels[sid], "split", None)
            elif kind == _UNIVERSAL:
                yield TraceStep(labels[sid], "universal", f"x{x}" if x else yname(y))
            elif blanket[sid]:
                yield TraceStep(labels[sid], "y_blanket", yname(y))
            else:
                yield TraceStep(labels[sid], "x_pivot", f"x{x}")


def solve_exact(
    g: BipartiteGraph, ordering: LexConvexOrdering, *, trace: bool = False
) -> SolveResult:
    """Minimum VED-set of a convex bipartite graph under a declared ordering.

    Disconnected graphs split into components (the count is additive).  The
    witness is checked with ``ordering.dominated_by`` before return, in
    O(n1 + n2); a failed check raises ContractError, under ``python -O`` too.
    ``trace=True`` also returns the trace steps; ``stats`` is always set.
    """
    ensure_valid_lex_ordering(g, ordering)
    if not ordering.intervals:
        return SolveResult(0, frozenset(), (), SolveStats(0, 0, 0, 0, 0, 0, 0))
    yperm = ordering.yperm

    def yname(position: int) -> str:
        return f"y{yperm[position - 1]}"

    sweep = _Sweep(yname if trace else None)
    roots = [sweep.piece(*run) for run in _coverage_runs(ordering.intervals)]
    sweep.forward()
    count, blanket = sweep.backward()
    state, rows = sweep.req, sweep.rows

    witness: list[VertexRef] = []
    stack = [state[r] for r in roots]
    while stack:
        sid = stack.pop()
        kind, x, y, xchild, ychild = rows[sid]
        if kind == _SPLIT:
            stack += [state[r] for r in sweep.runs[sid]]
            continue
        witness.append(yref(yperm[y - 1]) if blanket[sid] or not x else xref(x))
        if kind == _PIVOT:
            stack.append(state[ychild] if blanket[sid] else state[xchild])
    total = sum(count[state[r]] for r in roots)
    witness_set = frozenset(witness)
    if len(witness_set) != total or not ordering.dominated_by(witness_set):
        raise ContractError(f"solve_exact built an invalid witness of size {total}")

    kinds = [row[0] for row in rows]
    pivots, blankets = kinds.count(_PIVOT), sum(blanket)
    universal, splits = kinds.count(_UNIVERSAL), kinds.count(_SPLIT) - 1
    stats = SolveStats(len(rows) - 1, len(state) - 1, pivots - blankets, blankets, universal,
                       splits, len(sweep.roots))
    steps = tuple(sweep.trace(blanket)) if trace else ()
    return SolveResult(total, witness_set, steps, stats)


def solve_baseline(g: BipartiteGraph, ordering: LexConvexOrdering) -> SolveResult:
    """One pivot per chain of each connected piece: the farthest-reaching
    neighbour of each chain's first Y vertex, read off ``chains._peels``.

    The result is always a valid VED-set (checked here, as in
    ``solve_exact``) but not always a minimum one; see
    ``counterexample_graph``.  An edgeless graph gives the empty set.
    """
    ensure_valid_lex_ordering(g, ordering)
    witness = frozenset(
        xref(pivot)
        for run in _coverage_runs(ordering.intervals)
        for _, pivot, _, _ in _peels(_Component(*run))
    )
    if not ordering.dominated_by(witness):
        raise ContractError("solve_baseline built an invalid witness")
    return SolveResult(len(witness), witness, ())
