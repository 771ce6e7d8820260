import random

import pytest

from veds import (
    BipartiteGraph,
    ContractError,
    DecompositionLemmaReport,
    GeneratorConfig,
    InputError,
    build_graph,
    compute_lex_convex_ordering,
    counterexample_graph,
    gen_random_convex_bipartite,
    identity_permutation,
    xref,
    yref,
)
from veds.chains import ClauseCheck
from veds.ordering import ensure_valid_lex_ordering


def ordered(g):
    """Lex ordering of g under the identity Y ordering."""
    return compute_lex_convex_ordering(g, identity_permutation(g.n2))


def complete(n1, n2):
    return build_graph(n1, n2, [(i, j) for i in range(1, n1 + 1) for j in range(1, n2 + 1)])


def relabel_y(g, rng: random.Random):
    """Rename Y by a random permutation of a graph convex under the identity
    ordering; return the relabelled graph and its matching convex yperm."""
    sigma = list(range(1, g.n2 + 1))
    rng.shuffle(sigma)
    relabelled = build_graph(g.n1, g.n2, [(i, sigma[j - 1]) for i, j in g.edges()])
    return relabelled, tuple(sigma)


@pytest.fixture
def counterexample():
    return counterexample_graph()


@pytest.fixture
def p8():
    """Path x1-y1-x2-y2-x3-y3-x4-y4."""
    return build_graph(4, 4, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])


def induced_subgraph(g: BipartiteGraph, xs, ys) -> BipartiteGraph:
    """Reference helper: induce on the given vertex sets, renumbering
    1..|xs|, 1..|ys| in ascending original order."""
    xs = sorted(set(xs))
    ys = sorted(set(ys))
    for i in xs:
        if not 1 <= i <= g.n1:
            raise InputError(f"x-index {i} out of range (n1={g.n1})")
    for j in ys:
        if not 1 <= j <= g.n2:
            raise InputError(f"y-index {j} out of range (n2={g.n2})")
    y_to_sub = {orig: k + 1 for k, orig in enumerate(ys)}
    edges = [
        (k + 1, y_to_sub[j])
        for k, i in enumerate(xs)
        for j in g.adj_x[i - 1]
        if j in y_to_sub
    ]
    return build_graph(len(xs), len(ys), edges)


def is_chain_graph(g: BipartiteGraph) -> bool:
    """Reference helper: true iff the X-neighbourhoods are totally ordered
    by inclusion."""
    hoods = sorted(
        (frozenset(nb) for nb in g.adj_x),
        key=lambda s: -len(s),
    )
    return all(b <= a for a, b in zip(hoods, hoods[1:]))


def reference_lemma(g: BipartiteGraph, decomp) -> DecompositionLemmaReport:
    """Reference lemma check: the clauses of ``verify_decomposition_lemma``,
    chain by chain.  Each X row's set of neighbour labels is kept for the
    whole check, the vertices are bucketed by ``decomp.parts()``, and each
    chain's clauses are read off the rows of chain i+1, strand i+1 and chain
    i+2, with the same messages, details and errors."""
    ensure_valid_lex_ordering(g, decomp.ordering)
    part_x, part_y = decomp.part_x, [0, *decomp.part_y]
    if len(part_x) != g.n1 or len(part_y) != g.n2 + 1:
        raise ContractError("decomposition does not label each vertex of the graph once")
    if min((*part_x, *part_y)) < 0:
        raise ContractError("decomposition gives a vertex a negative label")
    if any(label > 0 and label % 2 == 0 for label in part_y):
        raise ContractError("decomposition strands a Y vertex")
    chains, strands, _ = decomp.parts()
    adj_x = g.adj_x
    # seen[i]: the labels of x_i's neighbours.  xs[label]: the X vertices
    # with that label, ascending, padded so that chain i's ``own + 4`` is in
    # range for the last chain.
    seen = [None, *(set(map(part_y.__getitem__, nb)) for nb in adj_x)]
    xs = [[], *(v for (hx, _), js in zip(chains, strands) for v in (hx, js)), [], [], []]
    checks = []
    for idx, ((hx, hy), js) in enumerate(zip(chains, strands), start=1):
        if not (hx and hy):
            raise ContractError(f"decomposition chain {idx} has an empty side")
        own = 2 * idx - 1  # chain idx + 1 is own + 2, and its strand own + 3
        bad = [v for v in js if own not in seen[v]]
        checks.append(ClauseCheck(idx, "strand-attached", not bad, (
            f"x{bad[0]} has no neighbour in the chain's Y side" if bad
            else "all stranded vertices touch the chain")))
        if idx < len(chains):
            last_y = max(hy, key=decomp.ordering.ypos.__getitem__)
            linked = next((i for i in xs[own + 2] if last_y in adj_x[i - 1]), 0)
            checks.append(ClauseCheck(idx, "next-chain-linked", bool(linked), (
                f"y{last_y} reaches x{linked} in chain {idx + 1}" if linked
                else f"y{last_y} has no neighbour in chain {idx + 1}")))
        leaks = [f"x{i}~y{next(j for j in adj_x[i - 1] if part_y[j] == own + 4)} (chain {idx + 2})"
                 for i in hx if own + 4 in seen[i]]
        for label, where in ((own + 3, f"strand {idx + 1}"), (own + 4, f"chain {idx + 2}")):
            # X taken descending, so each Y vertex of chain idx ends on its least X.
            first = {j: i for i in reversed(xs[label]) if own in seen[i]
                     for j in adj_x[i - 1] if part_y[j] == own}
            leaks += [f"y{j}~x{i} ({where})" for j, i in first.items()]
        checks.append(ClauseCheck(idx, "no-forward-reach", not leaks, (
            "; ".join(sorted(leaks)) if leaks else "no adjacency past the next strand")))
    return DecompositionLemmaReport(tuple(checks))


def naive_undominated_edges(g: BipartiteGraph, d) -> list[tuple[int, int]]:
    """Independent restatement: the edges, in ascending order, with no member
    of d within the union of their endpoints' closed neighbourhoods, checked
    by a double loop over neighbourhoods read off the edge list once."""
    d = set(d)
    hoods = {}
    for i, j in g.edges():
        hoods.setdefault(("x", i), set()).add(("y", j))
        hoods.setdefault(("y", j), set()).add(("x", i))
    undominated = []
    for i, j in g.edges():
        hood = {("x", i), ("y", j)} | hoods[("x", i)] | hoods[("y", j)]
        if not any((v.side, v.index) in hood for v in d):
            undominated.append((i, j))
    return undominated


def naive_ve_dominates(g: BipartiteGraph, d) -> bool:
    return not naive_undominated_edges(g, d)


def random_convex_instance(rng: random.Random, max_side: int = 6, connected: bool = False):
    """Seeded convex instance with identity yorder, plus its lex ordering."""
    while True:
        cfg = GeneratorConfig(
            n1=rng.randint(1, max_side),
            n2=rng.randint(1, max_side),
            density=rng.uniform(0.2, 1.0),
            seed=rng.getrandbits(48),
            require_connected=connected,
        )
        try:
            g = gen_random_convex_bipartite(cfg)
        except Exception:
            continue
        return g, compute_lex_convex_ordering(g, identity_permutation(g.n2))


def _runs(intervals):
    """Maximal overlap-connected runs of sorted intervals, as (run, lo, hi)."""
    runs = []
    for e in intervals:
        if runs and e[0] <= runs[-1][2]:
            runs[-1][0].append(e)
            runs[-1][2] = max(runs[-1][2], e[1])
        else:
            runs.append([[e], e[0], e[1]])
    return runs


def unmemoised_solve(g, ordering):
    """Reference exact solver: the solver's recursion on plain interval
    lists, each request evaluated afresh, so a state asked for twice is
    solved and traced twice.  A state is (start, alive, yhi): the intervals
    still to dominate, those holding start first, and the last Y position of
    its piece.  Returns (gamma_ve, witness, trace) like ``solve_exact(g,
    ordering, trace=True)`` but without memoisation."""
    from veds import TraceStep

    def yname(p):
        return f"y{ordering.yperm[p - 1]}"

    trace = []

    def solve(start, alive, yhi):
        front = [e for e in alive if e[0] <= start]
        rest = [e for e in alive if e[0] > start]
        _, first_reach, first_x = min(front, key=lambda e: (e[1], e[2]))
        _, reach, pivot = max(front, key=lambda e: (e[1], e[2]))
        label = (f"x{first_x}", yname(start))
        runs = _runs(sorted((start, e[1], e[2]) for e in front) + rest)
        if len(runs) > 1 or runs[0][2] < yhi:
            count, witness = 0, set()
            for run, lo, hi in runs:
                c, w = solve(lo, run, hi)
                count, witness = count + c, witness | w
            trace.append(TraceStep(label, "split", None))
            return count, witness
        if reach == yhi:
            trace.append(TraceStep(label, "universal", f"x{pivot}"))
            return 1, {xref(pivot)}
        blanket = min(first_reach, min(e[1] for e in rest))
        max_left = max(e[0] for e in rest)
        if max_left <= blanket:
            trace.append(TraceStep(label, "universal", yname(max_left)))
            return 1, {yref(ordering.yperm[max_left - 1])}
        count, witness = solve(reach + 1, [e for e in rest if e[1] > reach], yhi)
        best = (count + 1, witness | {xref(pivot)}, "x_pivot", f"x{pivot}")
        beyond = [e for e in rest if e[0] > blanket]
        if all(e[1] > reach for e in beyond):
            count, witness = solve(beyond[0][0], beyond, yhi) if beyond else (0, set())
            if count + 1 < best[0]:
                y = yref(ordering.yperm[blanket - 1])
                best = (count + 1, witness | {y}, "y_blanket", yname(blanket))
        trace.append(TraceStep(label, best[2], best[3]))
        return best[:2]

    total, witness = 0, set()
    for run, lo, hi in _runs(sorted(ordering.intervals)):
        c, w = solve(lo, run, hi)
        total, witness = total + c, witness | w
    return total, frozenset(witness), tuple(trace)
