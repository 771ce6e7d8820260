import gc
import json
import random
import tracemalloc
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
from veds import ordering as ordering_module
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


def test_constructor_and_validator_share_the_gap_verdict():
    # Random yperms, mostly not convex: the ordering raises exactly when the
    # validator reports a gap, for the smallest x whose positions leave one
    # and the first position missing between its least and greatest.
    rng = random.Random(31)
    gaps = 0
    for _ in range(400):
        g, _ = random_convex_instance(rng, max_side=8)
        yperm = list(range(1, g.n2 + 1))
        rng.shuffle(yperm)
        ypos = {j: p for p, j in enumerate(yperm, start=1)}
        expected = None
        for i, nb in enumerate(g.adj_x, start=1):
            ps = sorted(ypos[j] for j in nb)
            missing = [p for p in range(ps[0], ps[-1] + 1) if p not in ps] if ps else []
            if missing:
                expected = (i, missing[0])
                break
        check = validate_convex_ordering(g, yperm)
        assert (check.violator, check.gap_position) == (expected or (None, None))
        assert check.ok == (expected is None)
        if expected is None:
            assert compute_lex_convex_ordering(g, yperm).yperm == tuple(yperm)
            continue
        gaps += 1
        with pytest.raises(InputError) as raised:
            compute_lex_convex_ordering(g, yperm)
        assert str(raised.value) == (f"yperm is not a convex ordering: N(x{expected[0]}) "
                                     f"has a gap at position {expected[1]}")
    assert gaps >= 100



@pytest.mark.parametrize("block", [1, 2, 5])
def test_derivation_does_not_depend_on_the_row_block(block, monkeypatch):
    # The constructor and the validator derive a block of rows at a time;
    # with blocks of a few rows, a gap is found in a later block and the
    # intervals of many blocks are joined, with the same outcome.
    rng = random.Random(block)
    cases = []
    for _ in range(150):
        g, _ = random_convex_instance(rng, max_side=12)
        yperm = list(range(1, g.n2 + 1))
        if rng.random() < 0.5:
            rng.shuffle(yperm)
        cases.append((g, yperm))

    def outcome(g, yperm):
        try:
            ordering = compute_lex_convex_ordering(g, yperm)
        except InputError as exc:
            return str(exc), validate_convex_ordering(g, yperm)
        return ordering.intervals, ordering.ypos, validate_convex_ordering(g, yperm)

    want = [outcome(g, yperm) for g, yperm in cases]
    monkeypatch.setattr(ordering_module, "_BLOCK", block)
    assert [outcome(g, yperm) for g, yperm in cases] == want
    assert sum(isinstance(w[0], str) for w in want) >= 30


def test_constructor_holds_one_block_of_positions():
    # A Y-relabelled path with 20000 X rows: the constructor holds the Y
    # positions of one block of rows at a time, so its tracemalloc peak
    # stays within 24 bytes a vertex of what the ordering keeps (about 8
    # here); holding every row's positions at once took about 60.
    n1 = 20000
    edges = [(i, i - 1) for i in range(2, n1 + 1)] + [(i, i) for i in range(1, n1 + 1)]
    g, yperm = relabel_y(build_graph(n1, n1, edges), random.Random(5))
    gc.collect()
    tracemalloc.start()
    try:
        ordering = compute_lex_convex_ordering(g, yperm)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ordering.intervals) == n1
    assert peak - kept <= 24 * (g.n1 + g.n2)

@pytest.mark.parametrize("yperm", [
    (1.0, 2.0, 3.0), ("1", "2", "3"), (0, 1, 2), (-1, 1, 2), (1, 2, 4), (1, 2, 10**30),
    (1, 2), (1, 2, 3, 4), (3, 3, 1), (1, 2, None),
], ids=repr)
def test_yperm_that_is_no_permutation_is_an_input_error(counterexample, yperm):
    for build in (compute_lex_convex_ordering, validate_convex_ordering):
        with pytest.raises(InputError) as raised:
            build(counterexample, yperm)
        assert str(raised.value) == f"yperm is not a permutation of 1..3: {yperm!r}"


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
