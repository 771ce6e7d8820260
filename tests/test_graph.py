import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veds import (
    InputError,
    VertexRef,
    build_graph,
    connected_components,
    first_undominated_edge,
    is_ve_dominating_set,
    parse_vertex_name,
    xref,
    yref,
)
from veds.graph import _undominated

from conftest import (
    induced_subgraph,
    naive_undominated_edges,
    naive_ve_dominates,
    random_convex_instance,
)


def small_graphs():
    """Hypothesis strategy: arbitrary small bipartite graphs."""
    return st.builds(
        lambda n1, n2, picks: build_graph(
            n1, n2, [(i % n1 + 1, j % n2 + 1) for i, j in picks] if n1 and n2 else []
        ),
        st.integers(1, 5),
        st.integers(1, 5),
        st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=15),
    )


def test_build_single_edge():
    g = build_graph(1, 1, [(1, 1)])
    assert g.m == 1
    assert g.adj_x == ((1,),)
    assert g.columns() == [[1]]


def test_build_counterexample(counterexample):
    assert (counterexample.n1, counterexample.n2) == (3, 3)
    assert counterexample.m == 5
    assert counterexample.adj_x == ((1, 2), (2,), (2, 3))
    assert counterexample.columns() == [[1], [1, 2, 3], [3]]


def test_build_collapses_duplicates():
    g = build_graph(2, 2, [(1, 1), (1, 1)])
    assert g.m == 1
    assert g.adj_x == ((1,), ())
    assert g.columns() == [[1], []]


def test_build_rejects_out_of_range():
    with pytest.raises(InputError, match=r"\(3, 1\)"):
        build_graph(2, 2, [(3, 1)])
    with pytest.raises(InputError, match=r"\(1, 0\)"):
        build_graph(2, 2, [(1, 0)])
    with pytest.raises(InputError) as raised:
        build_graph(-1, 2, [])
    assert str(raised.value) == "side sizes must be nonnegative, got n1=-1, n2=2"


def test_parse_vertex_name():
    assert parse_vertex_name("x3") == xref(3)
    assert parse_vertex_name(" y12 ") == yref(12)
    for bad in ("z1", "x0", "x", "1", "xy", "x²"):
        with pytest.raises(InputError):
            parse_vertex_name(bad)


def test_verifier_counterexample(counterexample):
    assert is_ve_dominating_set(counterexample, {yref(2)})


def test_verifier_empty_set_fails_with_edges(counterexample):
    assert not is_ve_dominating_set(counterexample, set())
    assert is_ve_dominating_set(build_graph(2, 2, []), set())


def test_verifier_p4():
    p4 = build_graph(2, 2, [(1, 1), (2, 1), (2, 2)])
    assert is_ve_dominating_set(p4, {xref(2)})


def test_verifier_rejects_bad_refs(counterexample):
    with pytest.raises(InputError):
        is_ve_dominating_set(counterexample, {xref(9)})


@pytest.mark.parametrize("refs,message", [
    ({VertexRef("z", 1)}, "invalid vertex side 'z'"),
    ({VertexRef("z", 1), yref(4), yref(0)}, "vertex y0 out of range (n2=3)"),
    ({yref(4), xref(0), xref(9)}, "vertex x0 out of range (n1=3)"),
    ({VertexRef("A", 1), xref(2)}, "invalid vertex side 'A'"),
])
def test_verifier_names_the_least_bad_ref(counterexample, refs, message):
    # The least offending reference as a (side, index) tuple, whatever the
    # iteration order; first_undominated_edge raises the same.
    for check in (is_ve_dominating_set, first_undominated_edge):
        for order in (sorted(refs), sorted(refs, reverse=True)):
            with pytest.raises(InputError) as raised:
                check(counterexample, order)
            assert str(raised.value) == message


@settings(max_examples=120, deadline=None)
@given(g=small_graphs(), data=st.data())
def test_verifier_matches_naive_double_loop(g, data):
    members = data.draw(
        st.lists(
            st.sampled_from(sorted(g.vertices())) if g.n else st.nothing(),
            max_size=g.n,
            unique=True,
        )
    )
    d = frozenset(members)
    assert is_ve_dominating_set(g, d) == naive_ve_dominates(g, d)
    undominated = naive_undominated_edges(g, d)
    first = undominated[0] if undominated else None
    assert _undominated(g, d) == (first, len(undominated))
    assert first_undominated_edge(g, d) == first
    # The Y neighbourhoods are the transpose of the edge list, isolated
    # vertices on either side included.
    edges = sorted(g.edges())
    assert g.columns() == [[i for i, j in edges if j == y] for y in range(1, g.n2 + 1)]


@settings(max_examples=80, deadline=None)
@given(g=small_graphs(), data=st.data())
def test_verifier_monotone_under_supersets(g, data):
    verts = sorted(g.vertices())
    d = frozenset(data.draw(st.lists(st.sampled_from(verts), max_size=g.n, unique=True)))
    extra = frozenset(data.draw(st.lists(st.sampled_from(verts), max_size=g.n, unique=True)))
    if is_ve_dominating_set(g, d):
        assert is_ve_dominating_set(g, d | extra)


@settings(max_examples=60, deadline=None)
@given(g=small_graphs())
def test_whole_vertex_set_dominates(g):
    assert is_ve_dominating_set(g, set(g.vertices())) == True  # noqa: E712
    assert is_ve_dominating_set(g, set()) == (g.m == 0)


def test_induced_subgraph_p8_tail(p8):
    # x3, x4 / y3, y4 renumber in ascending order to x1, x2 / y1, y2, so the
    # edges x3~y3, x4~y3, x4~y4 come out as below.
    sub = induced_subgraph(p8, [4, 3], [4, 3])
    assert (sub.n1, sub.n2, sub.m) == (2, 2, 3)
    assert sorted(sub.edges()) == [(1, 1), (2, 1), (2, 2)]


def test_induced_subgraph_identity(counterexample):
    sub = induced_subgraph(counterexample, range(1, 4), range(1, 4))
    assert sub == counterexample


def test_induced_subgraph_empty_side(counterexample):
    sub = induced_subgraph(counterexample, {1}, set())
    assert (sub.n1, sub.n2, sub.m) == (1, 0, 0)


def test_induced_subgraph_preserves_verdicts():
    rng = random.Random(31)
    for _ in range(40):
        g, _ = random_convex_instance(rng)
        xs = [i for i in range(1, g.n1 + 1) if rng.random() < 0.7]
        ys = [j for j in range(1, g.n2 + 1) if rng.random() < 0.7]
        sub = induced_subgraph(g, xs, ys)
        refs = [v for v in sub.vertices() if rng.random() < 0.5]
        # A dominating set of the parent restricted appropriately still
        # dominates surviving edges, checked through the naive loop.
        assert naive_ve_dominates(sub, refs) == is_ve_dominating_set(sub, refs)


def test_components_k11_plus_isolated():
    g = build_graph(1, 2, [(1, 1)])
    assert connected_components(g) == [((1,), (1,)), ((), (2,))]


def test_components_counterexample_is_connected(counterexample):
    assert connected_components(counterexample) == [((1, 2, 3), (1, 2, 3))]


def test_components_edgeless():
    g = build_graph(2, 0, [])
    assert connected_components(g) == [((1,), ()), ((2,), ())]


def test_components_cover_all_vertices():
    rng = random.Random(77)
    for _ in range(30):
        g, _ = random_convex_instance(rng)
        comps = connected_components(g)
        xs = sorted(i for c in comps for i in c[0])
        ys = sorted(j for c in comps for j in c[1])
        assert xs == list(range(1, g.n1 + 1))
        assert ys == list(range(1, g.n2 + 1))


def union_find_components(g):
    """The components of g by union-find over x_i = i and y_j = n1 + j, in
    connected_components' order: X-anchored ones by least X index, then the
    isolated Y vertices."""
    parent = list(range(g.n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in g.edges():
        parent[find(i)] = find(g.n1 + j)
    groups = {}
    for v in range(1, g.n + 1):
        groups.setdefault(find(v), []).append(v)
    return [(tuple(v for v in vs if v <= g.n1), tuple(v - g.n1 for v in vs if v > g.n1))
            for vs in groups.values()]


def test_components_match_union_find_on_nonconvex_graphs():
    rng = random.Random(4242)
    for _ in range(400):
        n1, n2 = rng.randint(0, 12), rng.randint(0, 12)
        p = rng.random() * 0.4
        g = build_graph(n1, n2, [(i, j) for i in range(1, n1 + 1) for j in range(1, n2 + 1)
                                 if rng.random() < p])
        assert connected_components(g) == union_find_components(g)
