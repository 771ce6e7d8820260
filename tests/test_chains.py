import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import veds
from veds import (
    ChainDecomposition,
    ContractError,
    build_graph,
    compute_lex_convex_ordering,
    connected_components,
    decompose,
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
    relabel_y,
)
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
        xs = [i for (hx, _), js in zip(d.chains, d.isolated_sets) for i in (*hx, *js)]
        ys = [j for _, hy in d.chains for j in hy]
        assert sorted(xs) == list(range(1, g.n1 + 1))
        assert sorted(ys) == list(range(1, g.n2 + 1))
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


def intervals_graph(n2, intervals):
    """The graph whose x_i is adjacent to Y positions intervals[i - 1]
    (inclusive ends), convex under the identity ordering."""
    edges = [(i, j) for i, (lo, hi) in enumerate(intervals, start=1) for j in range(lo, hi + 1)]
    return build_graph(len(intervals), n2, edges)


def hand_built(g, chains, strands):
    """A decomposition of g under the identity ordering with the given
    (X, Y) chains and strands, which need not satisfy the lemma."""
    return ChainDecomposition(
        tuple((frozenset(hx), frozenset(hy)) for hx, hy in chains),
        tuple(map(frozenset, strands)),
        (),
        frozenset(),
        ordered(g),
    )


def clause_tuples(g, d):
    return [
        (c.chain_index, c.clause, c.ok, c.detail)
        for c in verify_decomposition_lemma(g, d).checks
    ]


def test_lemma_reports_a_detached_strand():
    g = intervals_graph(3, [(1, 1), (1, 3), (2, 3)])
    d = hand_built(g, [({1}, {1}), ({2}, {2, 3})], [{3}, ()])
    assert clause_tuples(g, d) == [
        (1, "strand-attached", False, "x3 has no neighbour in the chain's Y side"),
        (1, "next-chain-linked", True, "y1 reaches x2 in chain 2"),
        (1, "no-forward-reach", True, "no adjacency past the next strand"),
        (2, "strand-attached", True, "all stranded vertices touch the chain"),
        (2, "no-forward-reach", True, "no adjacency past the next strand"),
    ]


def test_lemma_reports_an_unlinked_next_chain():
    g = intervals_graph(3, [(1, 2), (2, 3)])
    d = hand_built(g, [({1}, {1}), ({2}, {2, 3})], [(), ()])
    assert clause_tuples(g, d) == [
        (1, "strand-attached", True, "all stranded vertices touch the chain"),
        (1, "next-chain-linked", False, "y1 has no neighbour in chain 2"),
        (1, "no-forward-reach", True, "no adjacency past the next strand"),
        (2, "strand-attached", True, "all stranded vertices touch the chain"),
        (2, "no-forward-reach", True, "no adjacency past the next strand"),
    ]


def test_lemma_reports_a_leak_into_the_next_strand():
    g = intervals_graph(3, [(1, 1), (1, 3), (1, 2)])
    d = hand_built(g, [({1}, {1}), ({2}, {2, 3})], [(), {3}])
    assert clause_tuples(g, d) == [
        (1, "strand-attached", True, "all stranded vertices touch the chain"),
        (1, "next-chain-linked", True, "y1 reaches x2 in chain 2"),
        (1, "no-forward-reach", False, "y1~x3 (strand 2)"),
        (2, "strand-attached", True, "all stranded vertices touch the chain"),
        (2, "no-forward-reach", True, "no adjacency past the next strand"),
    ]


def test_lemma_reports_a_y_leak_two_chains_ahead():
    g = intervals_graph(3, [(1, 1), (1, 2), (1, 3)])
    d = hand_built(g, [({1}, {1}), ({2}, {2}), ({3}, {3})], [(), (), ()])
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
    d = hand_built(g, [({1}, {1}), ({2}, {2}), ({3}, {3})], [(), (), ()])
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
    d = hand_built(g, [({1}, range(1, 11)), ({2}, {11}), ({4}, {12})], [(), {3}, ()])
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
    # chain 1's Y side into chain 2 keeps the partition intact.
    d = decompose(p8, ordered(p8))
    (hx1, hy1), (hx2, hy2) = d.chains
    broken = d._replace(chains=((hx1, frozenset()), (hx2, hy1 | hy2)))
    with pytest.raises(ContractError, match="chain 1 has an empty side"):
        verify_decomposition_lemma(p8, broken)


def test_partition_error_names_the_least_foreign_vertex_under_every_hash_seed():
    # P_4's chain 1 gains x5, x9 and y3, and its tail x11; the message must
    # not depend on the iteration order of string-hashed sets, nor on which
    # part is read first.
    script = (
        "from veds import ContractError, build_graph, compute_lex_convex_ordering, "
        "decompose, verify_decomposition_lemma, xref\n"
        "g = build_graph(2, 2, [(1, 1), (2, 1), (2, 2)])\n"
        "d = decompose(g, compute_lex_convex_ordering(g, (1, 2)))\n"
        "(hx, hy), = d.chains\n"
        "d = d._replace(chains=((hx | {5, 9}, hy | {3}),), tail_isolated=frozenset({xref(11)}))\n"
        "try:\n"
        "    verify_decomposition_lemma(g, d)\n"
        "except ContractError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(veds.__file__).resolve().parent.parent)
    outputs = set()
    for seed in range(1, 7):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            "PYTHONHASHSEED": str(seed),
        }
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        outputs.add((done.returncode, done.stdout, done.stderr))
    assert outputs == {(0, "decomposition mentions x5, which the graph lacks\n", "")}


def _mutate(g, d, rng):
    """d with one seeded fault: a vertex moved to another part, two chains'
    Y sides swapped, a vertex mentioned twice, or a foreign vertex added.
    No chain side is left empty."""
    xs = [set(hx) for hx, _ in d.chains]
    ys = [set(hy) for _, hy in d.chains]
    strands = [set(js) for js in d.isolated_sets]
    tail = set(d.tail_isolated)
    k = len(xs)
    while True:
        kind = rng.randrange(6)
        if kind == 0:  # an X vertex moves to another chain, a strand or the tail
            sources = [p for p in xs if len(p) > 1] + [p for p in strands if p]
            if not sources:
                continue
            src = rng.choice(sources)
            v = rng.choice(sorted(src))
            src.remove(v)
            dst = rng.randrange(2 * k + 1)
            if dst == 2 * k:
                tail.add(xref(v))
            else:
                (xs + strands)[dst].add(v)
        elif kind == 1:  # a Y vertex moves to another chain or the tail
            sources = [p for p in ys if len(p) > 1]
            if not sources:
                continue
            src = rng.choice(sources)
            v = rng.choice(sorted(src))
            src.remove(v)
            dst = rng.randrange(k + 1)
            if dst == k:
                tail.add(yref(v))
            else:
                ys[dst].add(v)
        elif kind in (2, 3):  # two chains swap Y sides
            if k < 2:
                continue
            a, b = rng.sample(range(k), 2)
            ys[a], ys[b] = ys[b], ys[a]
        elif kind == 4:  # a vertex is mentioned twice
            if rng.random() < 0.5:
                rng.choice(xs + strands).add(rng.randint(1, g.n1))
            else:
                rng.choice(ys).add(rng.randint(1, g.n2))
        else:  # a vertex the graph lacks
            side = rng.choice("xy")
            n = g.n1 if side == "x" else g.n2
            v = rng.choice([0, n + 1, n + rng.randint(2, 9)])
            (rng.choice(xs) if side == "x" else rng.choice(ys)).add(v)
        break
    return d._replace(
        chains=tuple((frozenset(hx), frozenset(hy)) for hx, hy in zip(xs, ys)),
        isolated_sets=tuple(map(frozenset, strands)),
        tail_isolated=frozenset(tail),
    )


def test_mutated_decomposition_digest():
    # sha256 over one line per mutation (2400 of them, of Y-relabelled
    # chains and paths): the (chain, clause, ok, detail) tuples and the
    # verdict, or the ContractError text.  Pinned with the lemma check that
    # built a VertexRef set per part and a set per vertex.
    rng = random.Random(2611)
    h = hashlib.sha256()
    failing = 0
    for k in range(120):
        base = chain_graph(rng.randint(3, 40), rng) if k % 2 else path_graph(rng.randint(4, 60))
        g, sigma = relabel_y(base, rng)
        d = decompose(g, compute_lex_convex_ordering(g, sigma))
        for _ in range(20):
            try:
                checks = clause_tuples(g, _mutate(g, d, rng))
            except ContractError as exc:
                line = f"error: {exc}"
            else:
                passed = all(ok for _, _, ok, _ in checks)
                failing += not passed
                line = repr((checks, passed))
            h.update(line.encode() + b"\n")
    assert failing >= 1000
    assert h.hexdigest() == (
        "9f4e9c9bf903ab530c915be8410d337728579bf3476f620c7b4ad26e7511ccf6"
    )
