import hashlib
import random

import pytest

from veds import (
    ContractError,
    build_graph,
    compute_lex_convex_ordering,
    connected_components,
    decompose,
    induced_subgraph,
    is_chain_graph,
    verify_decomposition_lemma,
    xref,
    yref,
)

from conftest import complete, ordered, random_convex_instance, relabel_y
from test_solver import chain_graph, golden_instances, path_graph


def test_decompose_counterexample(counterexample):
    d = decompose(counterexample, ordered(counterexample))
    assert [(set(hx), set(hy)) for hx, hy in d.chains] == [
        ({1}, {1, 2}),
        ({3}, {3}),
    ]
    assert [set(js) for js in d.isolated_sets] == [{2}, set()]
    assert not d.tail_isolated


def test_decompose_p8(p8):
    d = decompose(p8, ordered(p8))
    assert [(set(hx), set(hy)) for hx, hy in d.chains] == [
        ({1, 2}, {1, 2}),
        ({3, 4}, {3, 4}),
    ]
    assert [set(js) for js in d.isolated_sets] == [set(), set()]


def test_decompose_complete_bipartite_single_chain():
    g = complete(3, 4)
    d = decompose(g, ordered(g))
    assert len(d.chains) == 1
    assert d.chains[0] == (frozenset({1, 2, 3}), frozenset({1, 2, 3, 4}))
    assert d.isolated_sets == (frozenset(),)


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
        k = len(d.chains)
        for i in range(k):
            xs = set().union(*(d.chains[j][0] | d.isolated_sets[j] for j in range(i, k)))
            ys = set().union(*(d.chains[j][1] for j in range(i, k)))
            sub = induced_subgraph(g, xs, ys)
            if is_chain_graph(sub):
                assert i == k - 1
                assert d.isolated_sets[i] == frozenset()


def test_random_decompositions_partition_and_verify():
    rng = random.Random(29)
    for _ in range(250):
        g, ordv = random_convex_instance(rng, max_side=10, connected=True)
        d = decompose(g, ordv)
        seen = set()
        for part in d.vertex_partition():
            assert not (part & seen)
            seen |= part
        assert len(seen) == g.n
        for hx, hy in d.chains:
            assert hx and hy
            sub = induced_subgraph(g, hx, hy)
            assert is_chain_graph(sub)
        assert not d.tail_isolated  # connected inputs strand nothing
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
    # repr of (chains, isolated sets, pivots), sets as sorted lists.  Pinned
    # with the decompose that peeled by filtering and re-sorting the
    # remainder; any change to a chain, a strand or a pivot of these deep or
    # relabelled instances shows here.
    h = hashlib.sha256()
    for g, ordv in decomposition_instances():
        d = decompose(g, ordv)
        line = (
            [(sorted(hx), sorted(hy)) for hx, hy in d.chains],
            [sorted(js) for js in d.isolated_sets],
            list(d.pivots),
        )
        h.update(repr(line).encode() + b"\n")
    assert h.hexdigest() == (
        "2070a8c49fdd9a28daf00739a7feecec87500852922d2347cef0f78b98ce0aaa"
    )
