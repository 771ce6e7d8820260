import json
import random
from itertools import permutations

import pytest

from veds import (
    CapacityError,
    InputError,
    build_graph,
    compute_lex_convex_ordering,
    connected_components,
    find_convex_ordering_exhaustive,
    format_graph_text,
    identity_permutation,
    is_ve_dominating_set,
    validate_convex_ordering,
)
from veds.cli import main
from veds.ordering import ensure_valid_lex_ordering

from conftest import random_convex_instance, relabel_y


def order_json(g, yperm, tmp_path, capsys):
    """The ``veds order --json`` payload of g under yperm."""
    path = tmp_path / "g.cbg"
    path.write_text(format_graph_text(g, yperm))
    assert main(["order", str(path), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def hexagon():
    """Six-cycle: x1~{y1,y2}, x2~{y2,y3}, x3~{y3,y1}."""
    return build_graph(3, 3, [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1)])


def test_validate_counterexample_identity(counterexample):
    check = validate_convex_ordering(counterexample, (1, 2, 3))
    assert check.ok and check.violator is None


def test_validate_hexagon_reports_violator():
    check = validate_convex_ordering(hexagon(), (1, 2, 3))
    assert not check.ok
    assert check.violator == 3
    assert check.gap_position == 2


def test_validate_single_y_always_ok():
    g = build_graph(3, 1, [(1, 1), (3, 1)])
    assert validate_convex_ordering(g, (1,)).ok


def test_validate_rejects_malformed_permutation(counterexample):
    with pytest.raises(InputError):
        validate_convex_ordering(counterexample, (1, 2))
    with pytest.raises(InputError):
        validate_convex_ordering(counterexample, (1, 2, 2))


def test_lex_ordering_counterexample(counterexample):
    ordv = compute_lex_convex_ordering(counterexample, (1, 2, 3))
    assert ordv.intervals == ((1, 2, 1), (2, 2, 2), (2, 3, 3))


def test_lex_ordering_p8(p8):
    ordv = compute_lex_convex_ordering(p8, (1, 2, 3, 4))
    assert ordv.intervals == ((1, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4))


def test_lex_ordering_star():
    q = 5
    g = build_graph(1, q, [(1, j) for j in range(1, q + 1)])
    ordv = compute_lex_convex_ordering(g, identity_permutation(q))
    assert ordv.intervals == ((1, q, 1),)


def test_lex_ordering_rejects_nonconvex_yperm():
    with pytest.raises(InputError, match="gap"):
        compute_lex_convex_ordering(hexagon(), (1, 2, 3))


def test_lex_ordering_isolated_x_goes_first(tmp_path, capsys):
    g = build_graph(3, 2, [(2, 1), (3, 1), (3, 2)])
    ordv = compute_lex_convex_ordering(g, (1, 2))
    assert ordv.intervals == ((1, 1, 2), (1, 2, 3))
    ensure_valid_lex_ordering(g, ordv)
    payload = order_json(g, (1, 2), tmp_path, capsys)
    assert payload["xperm"] == [1, 2, 3]
    assert payload["left_x"][0] is None and payload["right_x"][0] is None


def test_lex_matches_comparison_sort_reference():
    rng = random.Random(11)
    for _ in range(200):
        g, ordv = random_convex_instance(rng)
        ypos = {j: p for p, j in enumerate(range(1, g.n2 + 1), start=1)}
        keys = {}
        for i in range(1, g.n1 + 1):
            nb = g.adj_x[i - 1]
            ps = [ypos[j] for j in nb]
            keys[i] = (min(ps), max(ps), i) if ps else (0, 0, i)
        reference = tuple(sorted(range(1, g.n1 + 1), key=keys.__getitem__))
        # Isolated X vertices (key (0, 0, i)) sort first and carry no interval.
        lex = tuple(i for i in reference if g.adj_x[i - 1])
        assert tuple(e[2] for e in ordv.intervals) == lex


def test_interval_consistency_and_totality(tmp_path, capsys):
    rng = random.Random(13)
    for _ in range(120):
        g, yperm = relabel_y(random_convex_instance(rng)[0], rng)
        ordv = compute_lex_convex_ordering(g, yperm)
        ypos = {j: p for p, j in enumerate(yperm, start=1)}
        for lo, hi, i in ordv.intervals:
            positions = sorted(ypos[j] for j in g.adj_x[i - 1])
            assert positions == list(range(lo, hi + 1))
        # The shared interval list is (min, max, x) from adjacency, in lex order.
        expected = sorted(
            (min(ypos[j] for j in nb), max(ypos[j] for j in nb), i)
            for i, nb in enumerate(g.adj_x, start=1)
            if nb
        )
        assert list(ordv.intervals) == expected
        # Adjacent-pair lexicographic check agrees with the full pairwise one.
        keys = [e[:2] for e in ordv.intervals]
        adjacent = all(keys[k] <= keys[k + 1] for k in range(len(keys) - 1))
        pairwise = all(
            keys[a] <= keys[b] for a in range(len(keys)) for b in range(a + 1, len(keys))
        )
        assert adjacent and pairwise
        # `veds order` tables: X in lex order, isolated first with no ends;
        # per Y position, the least and greatest X position of a neighbour.
        payload = order_json(g, yperm, tmp_path, capsys)
        assert payload["yperm"] == list(yperm)
        xperm = payload["xperm"]
        assert xperm == [i for i in range(1, g.n1 + 1) if not g.adj_x[i - 1]] + [
            e[2] for e in ordv.intervals
        ]
        for p, i in enumerate(xperm):
            positions = sorted(ypos[j] for j in g.adj_x[i - 1])
            lo, hi = payload["left_x"][p], payload["right_x"][p]
            if not positions:
                assert lo is None and hi is None
            else:
                assert positions == list(range(lo, hi + 1))
        xpos = {i: p for p, i in enumerate(xperm, start=1)}
        for p, j in enumerate(yperm):
            ps = [xpos[i] for i, k in g.edges() if k == j]
            assert payload["left_y"][p] == min(ps, default=None)
            assert payload["right_y"][p] == max(ps, default=None)


def test_permutations_are_bijections(tmp_path, capsys):
    rng = random.Random(17)
    for _ in range(60):
        g, ordv = random_convex_instance(rng)
        payload = order_json(g, ordv.yperm, tmp_path, capsys)
        assert sorted(payload["xperm"]) == list(range(1, g.n1 + 1))
        assert sorted(ordv.yperm) == list(range(1, g.n2 + 1))
        for j in ordv.yperm:
            assert ordv.yperm[ordv.ypos[j] - 1] == j


def test_exhaustive_search_counterexample(counterexample):
    assert find_convex_ordering_exhaustive(counterexample) == (1, 2, 3)


def test_exhaustive_search_complete_bipartite():
    g = build_graph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert find_convex_ordering_exhaustive(g) == (1, 2)


def test_exhaustive_search_hexagon_has_no_ordering():
    # The three neighbourhood pairs of the six-cycle form a triangle; a linear
    # order of three positions has only two adjacent pairs, so no convex
    # ordering can exist and the search must report that.
    assert find_convex_ordering_exhaustive(hexagon()) is None


def test_exhaustive_search_capacity():
    g = build_graph(1, 11, [(1, 1)])
    with pytest.raises(CapacityError, match="yorder"):
        find_convex_ordering_exhaustive(g)


def test_exhaustive_search_agrees_with_generator():
    rng = random.Random(19)
    for _ in range(25):
        g, _ = random_convex_instance(rng, max_side=5)
        found = find_convex_ordering_exhaustive(g)
        assert found is not None
        assert validate_convex_ordering(g, found).ok


def least_convex_ordering_by_permutations(g):
    """The lexicographically least convex yperm, by trying every permutation."""
    for perm in permutations(range(1, g.n2 + 1)):
        if validate_convex_ordering(g, perm).ok:
            return perm
    return None


def test_exhaustive_search_agrees_with_permutations():
    # A third of the draws are relabelled interval graphs, convex by
    # construction; the others put each edge in with one fixed probability,
    # and are often not convex once n2 >= 4.
    rng = random.Random(404)
    verdicts = {True: 0, False: 0}
    for k in range(600):
        if k % 3 == 0:
            g, _ = relabel_y(random_convex_instance(rng, max_side=7)[0], rng)
        else:
            n1, n2 = rng.randint(2, 7), rng.randint(3, 7)
            p = rng.uniform(0.3, 0.7)
            g = build_graph(
                n1, n2, [(i, j) for i in range(1, n1 + 1) for j in range(1, n2 + 1) if rng.random() < p]
            )
        want = least_convex_ordering_by_permutations(g)
        assert find_convex_ordering_exhaustive(g) == want, format_graph_text(g)
        verdicts[want is not None] += 1
    assert min(verdicts.values()) > 100


def interval_graph(rng):
    """Up to 10 X vertices on up to 10 Y positions, each an interval or, about
    one time in five, isolated; Y is relabelled in half the draws.  Returns
    the graph and its convex yperm.  Gaps between intervals and isolated Y
    vertices make many of the graphs disconnected."""
    n1, n2 = rng.randint(1, 10), rng.randint(1, 10)
    edges = []
    for i in range(1, n1 + 1):
        if rng.random() < 0.2:
            continue
        left = rng.randint(1, n2)
        right = min(n2, left + rng.choice((0, 0, 1, 2, 4, 9)))
        edges += [(i, j) for j in range(left, right + 1)]
    g = build_graph(n1, n2, edges)
    if rng.random() < 0.5:
        return relabel_y(g, rng)
    return g, identity_permutation(n2)


def test_dominated_by_agrees_with_the_reference_check():
    # Each draw checks the empty set, the whole vertex set and five random
    # subsets of growing density.
    rng = random.Random(151)
    verdicts = {True: 0, False: 0}
    disconnected = isolated_x = 0
    for _ in range(4000):
        g, yperm = interval_graph(rng)
        o = compute_lex_convex_ordering(g, yperm)
        vertices = list(g.vertices())
        subsets = [[], vertices] + [
            [v for v in vertices if rng.random() < p] for p in (0.05, 0.1, 0.2, 0.3, 0.5)
        ]
        for d in subsets:
            want = is_ve_dominating_set(g, d)
            assert o.dominated_by(d) == want, (format_graph_text(g, yperm), d)
            verdicts[want] += 1
        disconnected += len(connected_components(g)) > 1
        isolated_x += any(not nb for nb in g.adj_x)
    assert min(verdicts.values()) > 5000
    assert disconnected > 1000 and isolated_x > 1000
