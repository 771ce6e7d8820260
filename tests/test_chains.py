import hashlib
import random
from collections import Counter

import pytest

from veds import (
    ChainDecomposition,
    ContractError,
    GeneratorConfig,
    build_graph,
    compute_lex_convex_ordering,
    connected_components,
    decompose,
    gen_random_convex_bipartite,
    verify_decomposition_lemma,
    xref,
    yref,
)

from conftest import (
    complete,
    induced_subgraph,
    is_chain_graph,
    ordered,
    random_convex_instance,
    reference_lemma,
    relabel_y,
)
from test_solver import chain_graph, golden_instances, path_graph


def test_decompose_counterexample(counterexample):
    d = decompose(counterexample, ordered(counterexample))
    assert (d.part_x, d.part_y, d.pivots) == ((1, 2, 3), (1, 1, 3), (1, 3))
    assert d.parts() == ([([1], [1, 2]), ([3], [3])], [[2], []], [])


def test_decompose_p8(p8):
    d = decompose(p8, ordered(p8))
    assert (d.part_x, d.part_y) == ((1, 1, 3, 3), (1, 1, 3, 3))
    assert d.parts() == ([([1, 2], [1, 2]), ([3, 4], [3, 4])], [[], []], [])


def test_decompose_complete_bipartite_single_chain():
    g = complete(3, 4)
    d = decompose(g, ordered(g))
    assert d.chains == [([1, 2, 3], [1, 2, 3, 4])]
    assert d.parts()[1] == [[]]


def test_decompose_single_vertex_is_the_tail():
    for g, vertex in ((build_graph(1, 0, []), xref(1)), (build_graph(0, 1, []), yref(1))):
        d = decompose(g, ordered(g))
        assert (d.part_x, d.part_y, d.pivots) == ((0,) * g.n1, (0,) * g.n2, ())
        assert d.parts() == ([], [], [vertex])
        assert verify_decomposition_lemma(g, d).checks == ()


def test_decompose_requires_connected():
    g = build_graph(2, 2, [(1, 1), (2, 2)])
    with pytest.raises(ContractError, match="connected"):
        decompose(g, ordered(g))


def test_decompose_rejects_exactly_the_disconnected():
    # Connectivity is read off the interval runs; the BFS components are the
    # reference.  Y is relabelled so positions and indices differ.
    rng = random.Random(41)
    seen = set()
    for _ in range(300):
        g, yperm = relabel_y(random_convex_instance(rng)[0], rng)
        ordv = compute_lex_convex_ordering(g, yperm)
        disconnected = len(connected_components(g)) > 1
        seen.add(disconnected)
        if disconnected:
            with pytest.raises(ContractError, match="connected"):
                decompose(g, ordv)
        else:
            decompose(g, ordv)
    assert seen == {False, True}


def test_decompose_deterministic(p8):
    assert decompose(p8, ordered(p8)) == decompose(p8, ordered(p8))


def test_is_chain_graph_complete():
    assert is_chain_graph(complete(2, 3))


def test_is_chain_graph_p8(p8):
    assert not is_chain_graph(p8)


def test_is_chain_graph_edgeless():
    assert is_chain_graph(build_graph(3, 2, []))


def test_is_chain_graph_side_symmetric():
    # Inclusion-ordered X-neighbourhoods iff inclusion-ordered Y-neighbourhoods.
    rng = random.Random(23)
    for _ in range(120):
        g, _ = random_convex_instance(rng)
        flipped = build_graph(g.n2, g.n1, [(j, i) for i, j in g.edges()])
        assert is_chain_graph(g) == is_chain_graph(flipped)


def test_lemma_counterexample(counterexample):
    d = decompose(counterexample, ordered(counterexample))
    report = verify_decomposition_lemma(counterexample, d)
    assert report.passed
    clauses = {(c.chain_index, c.clause) for c in report.checks}
    assert (1, "strand-attached") in clauses
    assert (1, "next-chain-linked") in clauses


def test_lemma_complete_bipartite_vacuous():
    g = complete(2, 2)
    report = verify_decomposition_lemma(g, decompose(g, ordered(g)))
    assert report.passed
    assert all(c.clause != "next-chain-linked" for c in report.checks)


def test_lemma_p8(p8):
    report = verify_decomposition_lemma(p8, decompose(p8, ordered(p8)))
    assert report.passed


def test_lemma_rejects_foreign_decomposition(counterexample, p8):
    d = decompose(p8, ordered(p8))
    with pytest.raises(ContractError):
        verify_decomposition_lemma(counterexample, d)
    # Same side sizes, so the vertex partition alone cannot tell them apart.
    own = build_graph(2, 2, [(1, 1), (1, 2), (2, 2)])
    other = build_graph(2, 2, [(1, 1), (2, 1), (2, 2)])
    with pytest.raises(ContractError):
        verify_decomposition_lemma(other, decompose(own, ordered(own)))


def test_chain_remainders_are_emitted_whole():
    # Whenever the vertices of rounds i.. induce a chain graph, round i must
    # be the last one and carry everything (no strand left behind).
    rng = random.Random(37)
    for _ in range(150):
        g, ordv = random_convex_instance(rng, max_side=8, connected=True)
        d = decompose(g, ordv)
        k = len(d.pivots)
        for i in range(k):
            # Rounds i.. (0-based) carry the labels above 2i.
            xs = [v for v, label in enumerate(d.part_x, start=1) if label > 2 * i]
            ys = [v for v, label in enumerate(d.part_y, start=1) if label > 2 * i]
            if is_chain_graph(induced_subgraph(g, xs, ys)):
                assert i == k - 1
                assert 2 * k not in d.part_x


def test_random_decompositions_partition_and_verify():
    rng = random.Random(29)
    for _ in range(250):
        g, ordv = random_convex_instance(rng, max_side=10, connected=True)
        d = decompose(g, ordv)
        assert (len(d.part_x), len(d.part_y)) == (g.n1, g.n2)
        assert all(label % 2 for label in d.part_y)  # no Y vertex is stranded
        chains, strands, tail = d.parts()
        assert len(chains) == len(strands) == len(d.pivots)
        for hx, hy in chains:
            assert hx and hy
            sub = induced_subgraph(g, hx, hy)
            assert is_chain_graph(sub)
        assert not tail  # connected inputs leave no tail
        assert verify_decomposition_lemma(g, d).passed


def decomposition_instances():
    """The connected golden instances of the solver tests, Y-relabelled
    short-interval chains with n1 = 100..2000, and the paths P_100..P_2000."""
    for g, ordv in golden_instances():
        if len(connected_components(g)) == 1:
            yield g, ordv
    rng = random.Random(2513)
    for n1 in range(100, 2001, 100):
        g, sigma = relabel_y(chain_graph(n1, rng), rng)
        yield g, compute_lex_convex_ordering(g, sigma)
    for n in range(50, 1001, 50):
        g = path_graph(2 * n)
        yield g, ordered(g)


def test_decomposition_digest():
    # sha256 over one line per instance (700 of them, 22,179 chains): the
    # repr of (chains, strands, pivots), vertex sets as ascending lists.
    # Pinned with the decompose that peeled by filtering and re-sorting the
    # remainder; any change to a chain, a strand or a pivot of these deep or
    # relabelled instances shows here.
    h = hashlib.sha256()
    for g, ordv in decomposition_instances():
        d = decompose(g, ordv)
        chains, strands, _ = d.parts()
        line = (chains, strands, list(d.pivots))
        h.update(repr(line).encode() + b"\n")
    assert h.hexdigest() == (
        "2070a8c49fdd9a28daf00739a7feecec87500852922d2347cef0f78b98ce0aaa"
    )


def intervals_graph(n2, intervals):
    """The graph whose x_i is adjacent to Y positions intervals[i - 1]
    (inclusive ends), convex under the identity ordering."""
    edges = [(i, j) for i, (lo, hi) in enumerate(intervals, start=1) for j in range(lo, hi + 1)]
    return build_graph(len(intervals), n2, edges)


def hand_built(g, part_x, part_y):
    """A decomposition of g under the identity ordering with the given
    labels (2k - 1 for chain k, 2k for its strand), which need not satisfy
    the lemma."""
    return ChainDecomposition(tuple(part_x), tuple(part_y), (), ordered(g))


def clause_tuples(g, d):
    return [
        (c.chain_index, c.clause, c.ok, c.detail)
        for c in verify_decomposition_lemma(g, d).checks
    ]


def test_lemma_reports_a_detached_strand():
    g = intervals_graph(3, [(1, 1), (1, 3), (2, 3)])
    d = hand_built(g, (1, 3, 2), (1, 3, 3))  # x3 in strand 1
    assert clause_tuples(g, d) == [
        (1, "strand-attached", False, "x3 has no neighbour in the chain's Y side"),
        (1, "next-chain-linked", True, "y1 reaches x2 in chain 2"),
        (1, "no-forward-reach", True, "no adjacency past the next strand"),
        (2, "strand-attached", True, "all stranded vertices touch the chain"),
        (2, "no-forward-reach", True, "no adjacency past the next strand"),
    ]


def test_lemma_reports_an_unlinked_next_chain():
    g = intervals_graph(3, [(1, 2), (2, 3)])
    d = hand_built(g, (1, 3), (1, 3, 3))
    assert clause_tuples(g, d) == [
        (1, "strand-attached", True, "all stranded vertices touch the chain"),
        (1, "next-chain-linked", False, "y1 has no neighbour in chain 2"),
        (1, "no-forward-reach", True, "no adjacency past the next strand"),
        (2, "strand-attached", True, "all stranded vertices touch the chain"),
        (2, "no-forward-reach", True, "no adjacency past the next strand"),
    ]


def test_lemma_reports_a_leak_into_the_next_strand():
    g = intervals_graph(3, [(1, 1), (1, 3), (1, 2)])
    d = hand_built(g, (1, 3, 4), (1, 3, 3))  # x3 in strand 2
    assert clause_tuples(g, d) == [
        (1, "strand-attached", True, "all stranded vertices touch the chain"),
        (1, "next-chain-linked", True, "y1 reaches x2 in chain 2"),
        (1, "no-forward-reach", False, "y1~x3 (strand 2)"),
        (2, "strand-attached", True, "all stranded vertices touch the chain"),
        (2, "no-forward-reach", True, "no adjacency past the next strand"),
    ]


def test_lemma_reports_a_y_leak_two_chains_ahead():
    g = intervals_graph(3, [(1, 1), (1, 2), (1, 3)])
    d = hand_built(g, (1, 3, 5), (1, 3, 5))
    assert clause_tuples(g, d) == [
        (1, "strand-attached", True, "all stranded vertices touch the chain"),
        (1, "next-chain-linked", True, "y1 reaches x2 in chain 2"),
        (1, "no-forward-reach", False, "y1~x3 (chain 3)"),
        (2, "strand-attached", True, "all stranded vertices touch the chain"),
        (2, "next-chain-linked", True, "y2 reaches x3 in chain 3"),
        (2, "no-forward-reach", True, "no adjacency past the next strand"),
        (3, "strand-attached", True, "all stranded vertices touch the chain"),
        (3, "no-forward-reach", True, "no adjacency past the next strand"),
    ]


def test_lemma_reports_an_x_leak_two_chains_ahead():
    g = intervals_graph(3, [(1, 3), (1, 2), (2, 3)])
    d = hand_built(g, (1, 3, 5), (1, 3, 5))
    assert clause_tuples(g, d) == [
        (1, "strand-attached", True, "all stranded vertices touch the chain"),
        (1, "next-chain-linked", True, "y1 reaches x2 in chain 2"),
        (1, "no-forward-reach", False, "x1~y3 (chain 3)"),
        (2, "strand-attached", True, "all stranded vertices touch the chain"),
        (2, "next-chain-linked", True, "y2 reaches x3 in chain 3"),
        (2, "no-forward-reach", True, "no adjacency past the next strand"),
        (3, "strand-attached", True, "all stranded vertices touch the chain"),
        (3, "no-forward-reach", True, "no adjacency past the next strand"),
    ]


def test_lemma_joins_several_leaks_in_string_order():
    # Sorted as strings, so x before y and y10 before y8.
    g = intervals_graph(12, [(1, 12), (10, 11), (9, 11), (8, 12)])
    d = hand_built(g, (1, 3, 4, 5), (1,) * 10 + (3, 5))  # x3 in strand 2
    assert clause_tuples(g, d) == [
        (1, "strand-attached", True, "all stranded vertices touch the chain"),
        (1, "next-chain-linked", True, "y10 reaches x2 in chain 2"),
        (
            1,
            "no-forward-reach",
            False,
            "x1~y12 (chain 3); y10~x3 (strand 2); y10~x4 (chain 3); "
            "y8~x4 (chain 3); y9~x3 (strand 2); y9~x4 (chain 3)",
        ),
        (2, "strand-attached", True, "all stranded vertices touch the chain"),
        (2, "next-chain-linked", True, "y11 reaches x4 in chain 3"),
        (2, "no-forward-reach", True, "no adjacency past the next strand"),
        (3, "strand-attached", True, "all stranded vertices touch the chain"),
        (3, "no-forward-reach", True, "no adjacency past the next strand"),
    ]


def test_lemma_rejects_a_chain_with_an_empty_side(p8):
    # P_8's chains are ({x1, x2}, {y1, y2}) and ({x3, x4}, {y3, y4}); moving
    # chain 1's Y side into chain 2 leaves chain 1 without Y vertices.
    d = decompose(p8, ordered(p8))
    broken = d._replace(part_y=(3, 3, 3, 3))
    with pytest.raises(ContractError, match="chain 1 has an empty side"):
        verify_decomposition_lemma(p8, broken)


def test_lemma_rejects_labels_of_the_wrong_shape(p8):
    # One label per vertex, none negative, and no Y vertex in a strand.
    d = decompose(p8, ordered(p8))
    for part_x, part_y, message in (
        ((1, 1, 3), (1, 1, 3, 3), "does not label each vertex of the graph once"),
        ((1, 1, 3, 3, 3), (1, 1, 3, 3), "does not label each vertex of the graph once"),
        ((1, 1, 3, 3), (1, 1, 3), "does not label each vertex of the graph once"),
        ((1, 1, 3, 3), (), "does not label each vertex of the graph once"),
        ((1, -1, 3, 3), (1, 1, 3, 3), "gives a vertex a negative label"),
        ((1, 1, 3, 3), (1, 1, 3, -3), "gives a vertex a negative label"),
        ((1, 1, 3, 3), (1, 2, 3, 3), "strands a Y vertex"),
    ):
        with pytest.raises(ContractError, match=message):
            verify_decomposition_lemma(p8, d._replace(part_x=part_x, part_y=part_y))


def _mutate(d, rng):
    """d with one seeded fault in its labels: a vertex moved to another part
    or two chains' Y sides swapped.  No chain side is left empty."""
    part_x, part_y = list(d.part_x), list(d.part_y)
    k = len(d.pivots)
    while True:
        kind = rng.randrange(4)
        if kind == 0:  # an X vertex moves to another chain, a strand or the tail
            sizes = Counter(part_x)
            movable = [v for v, label in enumerate(part_x) if label % 2 == 0 or sizes[label] > 1]
            if not movable:
                continue
            part_x[rng.choice(movable)] = rng.randrange(2 * k + 1)
        elif kind == 1:  # a Y vertex moves to another chain or the tail
            sizes = Counter(part_y)
            movable = [v for v, label in enumerate(part_y) if sizes[label] > 1]
            if not movable:
                continue
            part_y[rng.choice(movable)] = rng.choice([0, *range(1, 2 * k, 2)])
        else:  # two chains swap Y sides
            if k < 2:
                continue
            a, b = (2 * c + 1 for c in rng.sample(range(k), 2))
            part_y = [b if label == a else a if label == b else label for label in part_y]
        break
    return d._replace(part_x=tuple(part_x), part_y=tuple(part_y))


def test_mutated_decomposition_digest():
    # sha256 over one line per mutation (2400 of them, of Y-relabelled
    # chains and paths): the (chain, clause, ok, detail) tuples and the
    # verdict.  Each mutation, written as frozensets per chain, gave the same
    # tuples under the lemma check that read that form.
    rng = random.Random(2611)
    h = hashlib.sha256()
    failing = 0
    for k in range(120):
        base = chain_graph(rng.randint(3, 40), rng) if k % 2 else path_graph(rng.randint(4, 60))
        g, sigma = relabel_y(base, rng)
        d = decompose(g, compute_lex_convex_ordering(g, sigma))
        for _ in range(20):
            checks = clause_tuples(g, _mutate(d, rng))
            passed = all(ok for _, _, ok, _ in checks)
            failing += not passed
            h.update(repr((checks, passed)).encode() + b"\n")
    assert failing >= 1000
    assert h.hexdigest() == (
        "643a37ff2716f3b59c00ca356f6636dd4ac546cae41e822d0efeee356a5bbc30"
    )


def _same_verdict(g, d):
    """What both lemma checks give d, after asserting that they agree: the
    same checks, or a ContractError with the same message (returned)."""
    try:
        expected = reference_lemma(g, d).checks
    except ContractError as error:
        with pytest.raises(ContractError) as raised:
            verify_decomposition_lemma(g, d)
        assert str(raised.value) == str(error)
        return str(error)
    assert verify_decomposition_lemma(g, d).checks == expected
    return expected


def _relabelled_instances(rng, count):
    """Y-relabelled chains, paths and dense generator graphs, with their
    decompositions, a third of each."""
    for k in range(count):
        if k % 3 == 0:
            base = chain_graph(rng.randint(3, 40), rng)
        elif k % 3 == 1:
            base = path_graph(rng.randint(4, 60))
        else:
            n = rng.randint(8, 40)
            base = gen_random_convex_bipartite(GeneratorConfig(
                n, n, rng.uniform(0.15, 0.6), rng.getrandbits(48), require_connected=True))
        g, sigma = relabel_y(base, rng)
        yield g, decompose(g, compute_lex_convex_ordering(g, sigma))


def test_lemma_is_the_reference_lemma(counterexample, p8):
    # 2,250 draws with one _mutate fault each, on Y-relabelled chains, paths
    # and dense generator graphs (the relabelled dense graphs are a case the
    # mutation digest does not reach): the same checks.  Then 600 draws of
    # arbitrary labels, each with one vertex left off, a negative label, a
    # stranded Y vertex or no fault, and a foreign graph: every ContractError
    # of the label checks, with the same message.
    rng = random.Random(2719)
    draws = failing = 0
    for g, d in _relabelled_instances(rng, 150):
        assert all(c.ok for c in _same_verdict(g, d))
        for _ in range(15):
            checks = _same_verdict(g, _mutate(d, rng))
            assert isinstance(checks, tuple)
            draws += 1
            failing += not all(c.ok for c in checks)
    assert draws >= 2000
    assert failing >= draws // 3
    raised, passed = Counter(), 0
    for g, d in _relabelled_instances(rng, 60):
        k = len(d.pivots)
        for _ in range(10):
            part_x = [rng.randrange(2 * k + 3) for _ in range(g.n1)]
            part_y = [rng.choice([0, *range(1, 2 * k + 2, 2)]) for _ in range(g.n2)]
            fault = rng.randrange(4)
            if fault == 0:
                (part_x if rng.randrange(2) else part_y).pop()
            elif fault == 1:
                part = part_x if rng.randrange(2) else part_y
                part[rng.randrange(len(part))] = -rng.randint(1, 3)
            elif fault == 2:
                part_y[rng.randrange(g.n2)] = 2 * rng.randint(1, k + 1)
            verdict = _same_verdict(g, d._replace(part_x=tuple(part_x), part_y=tuple(part_y)))
            if isinstance(verdict, str):
                raised["empty side" if "empty side" in verdict else verdict] += 1
            else:
                passed += 1
    assert set(raised) == {
        "decomposition does not label each vertex of the graph once",
        "decomposition gives a vertex a negative label",
        "decomposition strands a Y vertex",
        "empty side",
    }
    assert passed > 0
    assert isinstance(_same_verdict(counterexample, decompose(p8, ordered(p8))), str)
