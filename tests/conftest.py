import random

import pytest

from veds import (
    BipartiteGraph,
    GeneratorConfig,
    InputError,
    build_graph,
    compute_lex_convex_ordering,
    counterexample_graph,
    gen_random_convex_bipartite,
    identity_permutation,
)


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
        for j in g.neighbors_x(i)
        if j in y_to_sub
    ]
    return build_graph(len(xs), len(ys), edges)


def is_chain_graph(g: BipartiteGraph) -> bool:
    """Reference helper: true iff the X-neighbourhoods are totally ordered
    by inclusion."""
    hoods = sorted(
        (frozenset(g.neighbors_x(i)) for i in range(1, g.n1 + 1)),
        key=lambda s: -len(s),
    )
    return all(b <= a for a, b in zip(hoods, hoods[1:]))


def naive_ve_dominates(g: BipartiteGraph, d) -> bool:
    """Independent restatement: every edge has a member of d within the union
    of its endpoints' closed neighbourhoods, checked by a double loop."""
    d = set(d)
    for i, j in g.edges():
        hood = {("x", i), ("y", j)}
        hood.update(("y", k) for k in g.neighbors_x(i))
        hood.update(("x", k) for k in g.neighbors_y(j))
        if not any((v.side, v.index) in hood for v in d):
            return False
    return True


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
