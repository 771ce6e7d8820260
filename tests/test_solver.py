import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
from bisect import bisect_right
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import veds
import veds.chains as chains
from veds import (
    ContractError,
    build_graph,
    brute_force_gamma_ve,
    compute_lex_convex_ordering,
    connected_components,
    counterexample_graph,
    decompose,
    is_ve_dominating_set,
    solve_baseline,
    solve_exact,
    xref,
    yref,
)

from conftest import (
    complete,
    naive_ve_dominates,
    ordered,
    random_convex_instance,
    relabel_y,
    unmemoised_solve,
)


def exhaustive_gamma(g):
    """Second, mask-free oracle: scan subsets by size with the naive verifier."""
    verts = sorted(g.vertices())
    for size in range(0, len(verts) + 1):
        for combo in combinations(verts, size):
            if naive_ve_dominates(g, combo):
                return size, frozenset(combo)
    raise AssertionError("unreachable")


def test_exact_counterexample(counterexample):
    r = solve_exact(counterexample, ordered(counterexample), trace=True)
    assert r.gamma_ve == 1
    assert r.witness == {yref(2)}
    # y2 lies in every interval, so the blanket beats the pivot x1 at the root.
    assert r.trace[0] == (("x1", "y1"), "y_blanket", "y2")


def test_exact_p8(p8):
    r = solve_exact(p8, ordered(p8), trace=True)
    assert r.gamma_ve == 2
    # The root is the first state the forward sweep creates.
    assert r.trace[0] == (("x1", "y1"), "x_pivot", "x2")


def test_exact_single_edge():
    g = build_graph(1, 1, [(1, 1)])
    r = solve_exact(g, ordered(g))
    assert r.gamma_ve == 1 and r.witness == {xref(1)}


def test_exact_edgeless_and_disconnected():
    g = build_graph(2, 2, [])
    assert solve_exact(g, ordered(g)).gamma_ve == 0
    two = build_graph(2, 2, [(1, 1), (2, 2)])
    r = solve_exact(two, ordered(two))
    assert r.gamma_ve == 2
    assert is_ve_dominating_set(two, r.witness)


def test_baseline_counterexample_gap(counterexample):
    ordv = ordered(counterexample)
    base = solve_baseline(counterexample, ordv)
    assert base.gamma_ve == 2
    assert base.witness == {xref(1), xref(3)}
    assert solve_exact(counterexample, ordv).gamma_ve == 1


def test_baseline_complete_bipartite():
    g = complete(3, 4)
    ordv = ordered(g)
    base = solve_baseline(g, ordv)
    assert base.gamma_ve == 1
    assert base.witness == {xref(3)}


def test_baseline_p8(p8):
    ordv = ordered(p8)
    base = solve_baseline(p8, ordv)
    assert base.witness == {xref(2), xref(4)}
    assert base.gamma_ve == brute_force_gamma_ve(p8).gamma_ve


def test_baseline_takes_disconnected_and_edgeless_graphs():
    two = build_graph(2, 2, [(1, 1), (2, 2)])
    assert solve_baseline(two, ordered(two)).gamma_ve == 2
    for g in (build_graph(2, 3, []), build_graph(1, 0, []), build_graph(0, 1, [])):
        base = solve_baseline(g, ordered(g))
        assert (base.gamma_ve, base.witness) == (0, frozenset())
    # Each connected piece gets its own chains, so the baseline stays a
    # valid VED-set, never smaller than the exact one.
    rng = random.Random(131)
    disconnected = 0
    while disconnected < 150:
        g, _ = random_convex_instance(rng, max_side=9)
        if len([xs for xs, _ in connected_components(g) if xs]) < 2:
            continue
        disconnected += 1
        g, sigma = relabel_y(g, rng)
        ordv = compute_lex_convex_ordering(g, sigma)
        base = solve_baseline(g, ordv)
        assert is_ve_dominating_set(g, base.witness) and len(base.witness) == base.gamma_ve
        assert base.gamma_ve >= solve_exact(g, ordv).gamma_ve


def test_baseline_is_the_decomposition_pivots():
    # Each chain's pivot is the neighbour of its first Y vertex that reaches
    # farthest under the ordering, ties to the larger index; the baseline
    # takes exactly those pivots.
    rng = random.Random(127)
    for _ in range(300):
        g, _ = random_convex_instance(rng, max_side=9, connected=True)
        g, sigma = relabel_y(g, rng)
        ordv = compute_lex_convex_ordering(g, sigma)
        pivots = set()
        for hx, hy in decompose(g, ordv).chains:
            first_y = min(hy, key=ordv.ypos.__getitem__)
            pivots.add(max(
                (i for i in hx if first_y in g.adj_x[i - 1]),
                key=lambda i: (max(ordv.ypos[j] for j in g.adj_x[i - 1]), i),
            ))
        assert solve_baseline(g, ordv).witness == {xref(p) for p in pivots}


@st.composite
def interval_instances(draw):
    """A convex graph drawn as Y intervals under a random Y labelling: the
    graph, a copy with X relabelled, and their convex Y ordering."""
    n2 = draw(st.integers(1, 40))
    spans = draw(
        st.lists(
            st.tuples(st.integers(1, n2), st.integers(0, 6)), min_size=1, max_size=40
        )
    )
    sigma = draw(st.permutations(range(1, n2 + 1)))
    edges = [
        (i, sigma[p - 1])
        for i, (left, width) in enumerate(spans, start=1)
        for p in range(left, min(left + width, n2) + 1)
    ]
    pi = draw(st.permutations(range(1, len(spans) + 1)))
    g = build_graph(len(spans), n2, edges)
    moved = build_graph(len(spans), n2, [(pi[i - 1], j) for i, j in edges])
    return g, moved, tuple(sigma)


@settings(max_examples=150, deadline=None)
@given(interval_instances())
def test_gamma_invariant_under_y_reversal_and_x_relabelling(case):
    g, moved, sigma = case
    gamma = solve_exact(g, compute_lex_convex_ordering(g, sigma)).gamma_ve
    reversed_y = compute_lex_convex_ordering(g, sigma[::-1])
    assert solve_exact(g, reversed_y).gamma_ve == gamma
    assert solve_exact(moved, compute_lex_convex_ordering(moved, sigma)).gamma_ve == gamma


def test_gamma_invariant_under_reversing_a_module_block():
    # Reversing a block of Y positions [p, q] that every interval contains,
    # misses or lies inside gives a second convex ordering of the same graph,
    # which must give the same gamma_ve and a valid witness.  The block is
    # drawn among all such blocks with 1 < q - p + 1 < n2; count the cases
    # whose interval lists differ, so the check is not vacuous.
    moved = [0]

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(interval_instances(), st.data())
    def check(case, data):
        g, _, sigma = case
        ordv = compute_lex_convex_ordering(g, sigma)
        spans = {e[:2] for e in ordv.intervals}
        n2 = len(sigma)
        blocks = [
            (p, q)
            for p in range(1, n2 + 1)
            for q in range(p + 1, min(n2, p + n2 - 2) + 1)
            if all(
                r < p or q < l or (l <= p and q <= r) or (p <= l and r <= q)
                for l, r in spans
            )
        ]
        if not blocks:
            return
        p, q = data.draw(st.sampled_from(blocks))
        flipped_sigma = sigma[: p - 1] + sigma[p - 1 : q][::-1] + sigma[q:]
        flipped = compute_lex_convex_ordering(g, flipped_sigma)
        first, second = solve_exact(g, ordv), solve_exact(g, flipped)
        assert first.gamma_ve == second.gamma_ve
        assert is_ve_dominating_set(g, first.witness) and is_ve_dominating_set(g, second.witness)
        moved[0] += ordv.intervals != flipped.intervals

    check()
    assert moved[0] >= 50


def test_ordering_of_another_graph_is_a_contract_error(counterexample):
    # Same side sizes, different edges: the ordering belongs to its own graph.
    other = complete(3, 3)
    ordv = ordered(counterexample)
    for call in (
        lambda: solve_exact(other, ordv),
        lambda: decompose(other, ordv),
        lambda: solve_baseline(other, ordv),
    ):
        with pytest.raises(ContractError, match="different graph"):
            call()


def test_exact_agrees_with_both_oracles_small():
    rng = random.Random(101)
    for _ in range(150):
        g, ordv = random_convex_instance(rng, max_side=4)
        r = solve_exact(g, ordv)
        masked = brute_force_gamma_ve(g)
        assert r.gamma_ve == masked.gamma_ve
        if g.n <= 7:
            plain_size, _ = exhaustive_gamma(g)
            assert r.gamma_ve == plain_size


def test_exact_agrees_with_oracle_connected():
    rng = random.Random(103)
    for _ in range(200):
        g, ordv = random_convex_instance(rng, max_side=7, connected=True)
        assert solve_exact(g, ordv).gamma_ve == brute_force_gamma_ve(g).gamma_ve


def test_memoized_equals_unmemoized():
    rng = random.Random(107)
    for _ in range(80):
        g, ordv = random_convex_instance(rng, max_side=6)
        assert solve_exact(g, ordv).gamma_ve == unmemoised_solve(g, ordv)[0]


def test_witness_contract_and_baseline_dominance():
    rng = random.Random(109)
    strict_seen = False
    for _ in range(150):
        g, ordv = random_convex_instance(rng, max_side=7, connected=True)
        exact = solve_exact(g, ordv)
        base = solve_baseline(g, ordv)
        for r in (exact, base):
            assert is_ve_dominating_set(g, r.witness)
            assert len(r.witness) == r.gamma_ve
        assert exact.gamma_ve <= base.gamma_ve
        strict_seen |= exact.gamma_ve < base.gamma_ve
    assert strict_seen  # the counterexample phenomenon shows up in the wild


def test_additivity_over_components():
    rng = random.Random(113)
    for _ in range(60):
        a, _ = random_convex_instance(rng, max_side=4)
        b, _ = random_convex_instance(rng, max_side=4)
        edges = list(a.edges()) + [(i + a.n1, j + a.n2) for i, j in b.edges()]
        union = build_graph(a.n1 + b.n1, a.n2 + b.n2, edges)
        ordv = ordered(union)
        if union.n <= 22:
            assert solve_exact(union, ordv).gamma_ve == brute_force_gamma_ve(union).gamma_ve
        assert (
            solve_exact(union, ordv).gamma_ve
            == solve_exact(a, ordered(a)).gamma_ve + solve_exact(b, ordered(b)).gamma_ve
        )


def path_graph(k):
    """Alternating path v1..vk with odd positions on the X side."""
    edges = []
    for t in range(1, (k + 1) // 2 + 1):
        if 2 * t <= k:
            edges.append((t, t))
        if 2 * t + 1 <= k:
            edges.append((t + 1, t))
    return build_graph((k + 1) // 2, k // 2, edges)


def test_exact_on_path_family():
    for k in range(2, 17):
        g = path_graph(k)
        assert solve_exact(g, ordered(g)).gamma_ve == brute_force_gamma_ve(g).gamma_ve


def test_exact_on_complete_and_star_families():
    for a in range(1, 5):
        for b in range(1, 5):
            g = complete(a, b)
            r = solve_exact(g, ordered(g))
            assert r.gamma_ve == 1 == brute_force_gamma_ve(g).gamma_ve


def test_exact_on_all_interval_assignments_3x3():
    # Every convex graph with identity ordering and n1 = n2 = 3, exhaustively:
    # each x carries one of the 7 subintervals of [1, 3] (or no edges at all).
    intervals = [None] + [(a, b) for a in range(1, 4) for b in range(a, 4)]
    for i1 in intervals:
        for i2 in intervals:
            for i3 in intervals:
                edges = []
                for x, iv in enumerate((i1, i2, i3), start=1):
                    if iv:
                        edges.extend((x, j) for j in range(iv[0], iv[1] + 1))
                g = build_graph(3, 3, edges)
                assert solve_exact(g, ordered(g)).gamma_ve == brute_force_gamma_ve(g).gamma_ve


def test_trace_branches_and_chosen_names_wellformed():
    rng = random.Random(127)
    side = {"x_pivot": "x", "y_blanket": "y"}
    for _ in range(60):
        g, ordv = random_convex_instance(rng, max_side=6)
        r = solve_exact(g, ordv, trace=True)
        for step in r.trace:
            assert step.chosen[0] == side[step.branch]


def chain_graph(n1, rng):
    """Connected short-interval chain: lengths 2..6 in shuffled blocks, each
    interval starting strictly inside the previous one (the benchmark's
    deep-recursion shape)."""
    intervals, lengths, left = [], [], 1
    for _ in range(n1):
        if not lengths:
            lengths = [2, 3, 4, 5, 6]
            rng.shuffle(lengths)
        length = lengths.pop()
        intervals.append((left, left + length - 1))
        left = rng.randint(left + 1, left + length - 1)
    edges = [(i, j) for i, (lo, hi) in enumerate(intervals, start=1) for j in range(lo, hi + 1)]
    return build_graph(n1, max(hi for _, hi in intervals), edges)


def short_interval_graph(rng):
    """Up to 30 intervals of up to 6 positions on n2 <= 30: often
    disconnected, and the family where nested splits are common."""
    n2 = rng.randint(1, 30)
    lefts = [rng.randint(1, n2) for _ in range(rng.randint(1, 30))]
    spans = [(a, min(n2, a + rng.randint(0, 5))) for a in lefts]
    edges = [(i, j) for i, (lo, hi) in enumerate(spans, start=1) for j in range(lo, hi + 1)]
    return build_graph(len(spans), n2, edges)


def padded_interval_graph(rng):
    """Up to 12 intervals of up to 4 positions on n2 <= 10, with 0 to 2
    uncovered Y positions before the first and after the last, so that the
    intervals may or may not reach position 1 or n2; n <= 22."""
    n2 = rng.randint(3, 10)
    before, after = rng.randint(0, 2), rng.randint(0, 2)
    top = max(before + 1, n2 - after)
    lefts = [rng.randint(before + 1, top) for _ in range(rng.randint(1, 22 - n2))]
    spans = [(a, min(top, a + rng.randint(0, 3))) for a in lefts]
    edges = [(i, j) for i, (lo, hi) in enumerate(spans, start=1) for j in range(lo, hi + 1)]
    return build_graph(len(spans), n2, edges)


def test_uncovered_ends_agree_with_brute_force():
    # Y positions no interval covers, before the first interval and after
    # the last, under a random Y labelling: the walks' index past a
    # position must hold at both ends of the ordering, with a pivot that
    # reaches n2 or stops short of it.  The graph of the CI smoke run first.
    g = build_graph(3, 6, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)])
    ordv = compute_lex_convex_ordering(g, (6, 2, 3, 4, 5, 1))
    r = solve_exact(g, ordv, trace=True)
    assert (r.gamma_ve, r.witness) == (2, {xref(3), yref(3)})
    assert [step.subproblem for step in r.trace] == [("x1", "y2"), ("x2", "y4"), ("x3", "y5")]
    assert solve_baseline(g, ordv).witness == {xref(1), xref(2), xref(3)}
    rng = random.Random(151)
    shapes = Counter()
    for _ in range(400):
        g, sigma = relabel_y(padded_interval_graph(rng), rng)
        ordv = compute_lex_convex_ordering(g, sigma)
        exact, base = solve_exact(g, ordv), solve_baseline(g, ordv)
        assert exact.gamma_ve == brute_force_gamma_ve(g).gamma_ve
        assert base.gamma_ve >= exact.gamma_ve
        assert is_ve_dominating_set(g, exact.witness) and is_ve_dominating_set(g, base.witness)
        entries = ordv.intervals
        shapes[entries[0][0] > 1, max(e[1] for e in entries) < g.n2] += 1
    assert min(shapes.values()) >= 20 and len(shapes) == 4


def golden_instances():
    """Fixed seeded instances: 320 random draws (every other one Y-relabelled,
    every fourth drawn connected), 24 relabelled chains, 600 relabelled
    short-interval graphs and the paths P_2..P_200."""
    rng = random.Random(2512)
    for k in range(320):
        g, ordv = random_convex_instance(rng, max_side=10, connected=k % 4 == 0)
        if k % 2:
            g, sigma = relabel_y(g, rng)
            ordv = compute_lex_convex_ordering(g, sigma)
        yield g, ordv
    for n1 in range(2, 50, 2):
        g, sigma = relabel_y(chain_graph(n1, rng), rng)
        yield g, compute_lex_convex_ordering(g, sigma)
    for _ in range(600):
        g, sigma = relabel_y(short_interval_graph(rng), rng)
        yield g, compute_lex_convex_ordering(g, sigma)
    for k in range(2, 201):
        g = path_graph(k)
        yield g, ordered(g)


def solve_digest(instances, steps=list):
    """sha256 over one line per instance: the repr of (gamma_ve, sorted
    witness names, ``steps`` of the trace steps as plain tuples)."""
    h = hashlib.sha256()
    for g, ordv in instances:
        r = solve_exact(g, ordv, trace=True)
        line = (r.gamma_ve, sorted(v.name() for v in r.witness), steps(tuple(s) for s in r.trace))
        h.update(repr(line).encode() + b"\n")
    return h.hexdigest()


def test_golden_answer_digest():
    # Counts and witnesses only.  Pinned with the solver that split states
    # into pieces; solving them in one sweep must not move it.
    assert (
        solve_digest(golden_instances(), steps=lambda ts: ())
        == "865802b41f3e5bc75028996104a8156ab4fccfbac6b9d67eaa92cd12505b6412"
    )


def test_golden_trace_digest():
    # solve_digest(golden_instances()), memoisation on: the full trace in
    # the order the forward sweep creates the states, each state once
    # (23,663 steps).  Any change to a count, a witness, a single trace step
    # of these instances or their order shows here.
    assert (
        solve_digest(golden_instances())
        == "0eab20c8957823b5690b8ac69970edf264af2d517e25359972ed5f36abe4cb09"
    )


def test_golden_stats_digest():
    # sha256 over the SolveStats of every golden solve, one repr per line:
    # states, requests, x_pivot and y_blanket.  The trace digest pins the
    # states; this pins the requests too, so a sweep that refiles its
    # requests differently shows here.
    h = hashlib.sha256()
    for g, ordv in golden_instances():
        h.update(repr(tuple(solve_exact(g, ordv).stats)).encode() + b"\n")
    assert h.hexdigest() == (
        "058c6c6560da30432b79f1ec6c7615558952505bde195ac4db83d5afd98574a5"
    )


def test_trace_steps_never_step_left():
    # No state splits: one sweep takes the states in increasing start, so
    # the Y positions of the steps' starts never decrease.
    traces = 0
    for g, ordv in golden_instances():
        trace = solve_exact(g, ordv, trace=True).trace
        position = {f"y{y}": p for p, y in enumerate(ordv.yperm, start=1)}
        starts = [position[step.subproblem[1]] for step in trace]
        assert starts == sorted(starts)
        traces += 1
    assert traces == 1143


def test_trace_off_gives_the_same_answer_and_stats_tally_the_trace():
    # Without trace=True the solve builds no steps but returns the same
    # count and witness; its stats are the branch tally of the full trace,
    # one step per state, and the requests answered from shared states.
    for g, ordv in golden_instances():
        plain, traced = solve_exact(g, ordv), solve_exact(g, ordv, trace=True)
        assert plain.trace == ()
        assert (plain.gamma_ve, plain.witness) == (traced.gamma_ve, traced.witness)
        stats = plain.stats
        assert stats == traced.stats
        tally = Counter(step.branch for step in traced.trace)
        assert stats.states == len(traced.trace)
        assert (stats.x_pivot, stats.y_blanket) == (tally["x_pivot"], tally["y_blanket"])
        # The bound of the solver's docstring: a state per start and first
        # front interval, and at most two child requests per state and the
        # root's.
        assert stats.states <= stats.requests <= 2 * stats.states + 1
        assert stats.states <= g.m


def reference_steps(trace):
    """The unmemoised reference's steps as the solver names them: no split,
    and a universal vertex taken as the branch of its side."""
    kind = {"x": "x_pivot", "y": "y_blanket"}
    return {
        step._replace(branch=kind[step.chosen[0]]) if step.branch == "universal" else step
        for step in trace
        if step.branch != "split"
    }


def test_split_states_agree_with_brute_force_and_unmemoised():
    # The reference splits a state into runs where the solver sweeps on; a
    # nested split is rare (about 13 in 2000 draws): draw until 50
    # instances under a random Y labelling have one.
    rng = random.Random(131)
    found = 0
    for _ in range(20000):
        g, _ = random_convex_instance(rng, max_side=8)
        g, sigma = relabel_y(g, rng)
        ordv = compute_lex_convex_ordering(g, sigma)
        gamma, witness, plain_trace = unmemoised_solve(g, ordv)
        if not any(step.branch == "split" for step in plain_trace):
            continue
        r = solve_exact(g, ordv, trace=True)
        assert r.gamma_ve == brute_force_gamma_ve(g).gamma_ve
        assert (gamma, witness) == (r.gamma_ve, r.witness)
        assert reference_steps(plain_trace) <= set(r.trace)
        found += 1
        if found == 50:
            break
    assert found == 50


def test_deep_path_leaves_the_recursion_limit_alone():
    # P_1200 in a fresh interpreter, whose recursion limit is the default.
    script = (
        "import sys\n"
        "from veds import build_graph, compute_lex_convex_ordering, solve_exact\n"
        "n = 600\n"
        "edges = [(i, i) for i in range(1, n + 1)] + [(i + 1, i) for i in range(1, n)]\n"
        "g = build_graph(n, n, edges)\n"
        "r = solve_exact(g, compute_lex_convex_ordering(g, tuple(range(1, n + 1))))\n"
        "print(r.gamma_ve, sys.getrecursionlimit())\n"
    )
    src = str(Path(veds.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["300", "1000"]


def test_split_heavy_tiled_graphs_solve_in_polynomial_states():
    # T_0, T_1 and T_64 of tools/hostile.py, in a fresh interpreter under a
    # timeout.  Solving each split's runs afresh solves the same pieces over
    # and over: 74,372 states over 23,039 pieces (30 distinct) on T_0, 3.3
    # million states and 24 s on T_1.  Solving each distinct piece once
    # still took 9 s on T_64.
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / 'tools')!r})\n"
        "from hostile import tiled_graph\n"
        "from veds import compute_lex_convex_ordering, solve_exact\n"
        "for k in (0, 1, 64):\n"
        "    g = tiled_graph(k)\n"
        "    r = solve_exact(g, compute_lex_convex_ordering(g, tuple(range(1, g.n2 + 1))))\n"
        "    print(json.dumps([g.n1, g.n2, g.m, r.gamma_ve, r.stats.states]))\n"
    )
    src = str(Path(veds.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=20
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [row[:4] for row in rows] == [
        [64, 64, 162, 21], [97, 96, 244, 31], [2176, 2112, 5410, 661]
    ]
    for _, _, m, _, states in rows:
        assert states <= m


def test_witness_check_survives_python_O():
    # Under -O the interpreter strips asserts; the solvers' witness check must
    # still run, and raise when the checker rejects the witness.
    script = (
        "from veds import ContractError, counterexample_graph, compute_lex_convex_ordering\n"
        "from veds import solve_baseline, solve_exact\n"
        "from veds.ordering import LexConvexOrdering\n"
        "g = counterexample_graph()\n"
        "o = compute_lex_convex_ordering(g, (1, 2, 3))\n"
        "print(__debug__, solve_exact(g, o).gamma_ve, solve_baseline(g, o).gamma_ve)\n"
        "LexConvexOrdering.dominated_by = lambda self, d: False\n"
        "for solve in (solve_exact, solve_baseline):\n"
        "    try:\n"
        "        solve(g, o)\n"
        "    except ContractError as exc:\n"
        "        print(solve.__name__, 'raised:', exc)\n"
    )
    src = str(Path(veds.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "False 1 2",
        "solve_exact raised: solve_exact built an invalid witness of size 1",
        "solve_baseline raised: solve_baseline built an invalid witness",
    ]


def small_interval_graph(rng):
    """At most 16 - n2 intervals on 6 <= n2 <= 9, mostly one or two positions
    long, some seven, under a random Y labelling: n <= 16, and a Y blanket
    that drops a long interval can leave a nested split."""
    n2 = rng.randint(6, 9)
    lefts = [rng.randint(1, n2) for _ in range(rng.randint(1, 16 - n2))]
    spans = [(a, min(n2, a + rng.choice((0, 0, 0, 1, 6)))) for a in lefts]
    edges = [(i, j) for i, (lo, hi) in enumerate(spans, start=1) for j in range(lo, hi + 1)]
    return relabel_y(build_graph(len(spans), n2, edges), rng)


def test_reference_steps_are_solver_steps():
    # The unmemoised reference evaluates every request afresh and splits a
    # state into runs; the solver evaluates each state once, in one sweep.
    # Both give the same answer, and every step the reference takes is one
    # the solver takes.  Draw until 30 instances have a nested split in the
    # reference (about 2 in 100 draws).
    rng = random.Random(139)
    split_seen = 0
    for _ in range(10000):
        g, sigma = small_interval_graph(rng)
        ordv = compute_lex_convex_ordering(g, sigma)
        r = solve_exact(g, ordv, trace=True)
        gamma, witness, plain_trace = unmemoised_solve(g, ordv)
        assert (r.gamma_ve, r.witness) == (gamma, witness)
        assert reference_steps(plain_trace) <= set(r.trace)
        split_seen += any(step.branch == "split" for step in plain_trace)
        if split_seen == 30:
            break
    assert split_seen == 30


def window_reads(*functions):
    """(code, line number) of each function's skip loop over a window,
    ``while f < b and ...``: b is the window's end and f begins at lo."""
    lines = set()
    for fn in functions:
        source, first = inspect.getsourcelines(fn)
        (offset,) = [k for k, line in enumerate(source) if line.strip().startswith("while f < b")]
        lines.add((fn.__code__, first + offset))
    return lines


def test_sparse_trace_length_is_linear():
    # Count-based growth checks on the deep sparse families, each also under
    # a random Y labelling.  At most 2 * n2 distinct states.  The windows of
    # entries that requests read hold at most 8 intervals per interval over
    # a solve and 1 over a decomposition, whose rounds read disjoint
    # windows.  Paths also check gamma_ve(P_k) = (k+2)//4.  A line hook
    # adds b - lo at each window read of solve_exact and _peels: the first
    # test of its skip loop, while f is still lo.
    reads = window_reads(solve_exact, chains._peels)
    codes = {code for code, _ in reads}
    read = [0]

    def on_line(frame, event, arg):
        if event == "line" and (frame.f_code, frame.f_lineno) in reads:
            names = frame.f_locals
            if names["f"] == names["lo"]:
                read[0] += names["b"] - names["lo"]
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code in codes else None

    def traced(fn, *args):
        read[0], outer = 0, sys.gettrace()
        sys.settrace(on_call)
        try:
            return fn(*args)
        finally:
            sys.settrace(outer)

    rng, relabel_rng = random.Random(137), random.Random(139)
    cases = [(path_graph(2 * n), 2 * n) for n in (100, 200, 400, 800)]
    cases += [(chain_graph(n1, rng), None) for n1 in (110, 220, 440, 880)]
    for base, k in cases:
        for g, sigma in ((base, tuple(range(1, base.n2 + 1))), relabel_y(base, relabel_rng)):
            ordv = compute_lex_convex_ordering(g, sigma)
            r = traced(solve_exact, g, ordv)
            assert k is None or r.gamma_ve == (k + 2) // 4
            assert r.stats.states <= 2 * g.n2
            # Every state is found by reading its window.
            assert r.stats.states <= read[0] <= 8 * len(ordv.intervals)
            traced(decompose, g, ordv)
            assert 0 < read[0] <= len(ordv.intervals)

    # The window from the first interval past floor, scanned to the first
    # interval past start, gives the front by its definition, for every
    # floor < start over the whole sorted interval list, gaps between
    # pieces included: entries[f] is its first interval.
    rng = random.Random(149)
    for _ in range(300):
        g = short_interval_graph(rng)
        entries = ordered(g).intervals
        lefts = [e[0] for e in entries]
        for start in range(1, g.n2 + 1):
            b = bisect_right(lefts, start)
            for floor in range(start):
                lo = bisect_right(lefts, floor)
                assert bisect_right(lefts, start, lo) == b
                f = lo
                while f < b and entries[f][1] < start:
                    f += 1
                assert all(e[1] < start for e in entries[lo:f])
                assert [e for e in entries[f:b] if e[1] >= start] == [
                    e for e in entries if floor < e[0] <= start <= e[1]
                ]


@settings(max_examples=100, deadline=None)
@given(interval_instances(), interval_instances())
def test_gamma_of_disjoint_union_is_the_sum(first, second):
    (a, _, sigma_a), (b, _, sigma_b) = first, second
    union = build_graph(
        a.n1 + b.n1,
        a.n2 + b.n2,
        list(a.edges()) + [(i + a.n1, j + a.n2) for i, j in b.edges()],
    )
    sigma = sigma_a + tuple(j + a.n2 for j in sigma_b)  # b's Y after a's
    ord_u = compute_lex_convex_ordering(union, sigma)
    ord_a = compute_lex_convex_ordering(a, sigma_a)
    ord_b = compute_lex_convex_ordering(b, sigma_b)
    assert solve_exact(union, ord_u).gamma_ve == (
        solve_exact(a, ord_a).gamma_ve + solve_exact(b, ord_b).gamma_ve
    )
    # b's Y positions follow a's, so a piece of a and one of b can touch
    # with no Y position between them; the baseline's walk over the whole
    # interval list must not merge them.
    shifted = {xref(v.index + a.n1) for v in solve_baseline(b, ord_b).witness}
    assert solve_baseline(union, ord_u).witness == solve_baseline(a, ord_a).witness | shifted


@settings(max_examples=100, deadline=None)
@given(interval_instances(), st.data())
def test_gamma_unchanged_by_an_x_twin(case, data):
    # A new X vertex with an existing one's neighbourhood: any VED-set of
    # one graph gives one of the other (swap the twin for its original).
    g, _, sigma = case
    i = data.draw(st.integers(1, g.n1))
    twin = build_graph(g.n1 + 1, g.n2, list(g.edges()) + [(g.n1 + 1, j) for j in g.adj_x[i - 1]])
    r = solve_exact(twin, compute_lex_convex_ordering(twin, sigma))
    assert r.gamma_ve == solve_exact(g, compute_lex_convex_ordering(g, sigma)).gamma_ve
    assert is_ve_dominating_set(twin, r.witness)


@settings(max_examples=100, deadline=None)
@given(interval_instances(), st.data())
def test_gamma_unchanged_by_a_y_twin_beside_its_original(case, data):
    # A new Y vertex with y_j's neighbourhood, placed right after y_j in
    # sigma, keeps every X interval contiguous and gamma_ve the same.
    g, _, sigma = case
    p = data.draw(st.integers(1, g.n2))
    j = sigma[p - 1]
    new = g.n2 + 1
    twin = build_graph(g.n1, new, list(g.edges()) + [(i, new) for i in g.columns()[j - 1]])
    r = solve_exact(twin, compute_lex_convex_ordering(twin, sigma[:p] + (new,) + sigma[p:]))
    assert r.gamma_ve == solve_exact(g, compute_lex_convex_ordering(g, sigma)).gamma_ve
    assert is_ve_dominating_set(twin, r.witness)


@settings(max_examples=100, deadline=None)
@given(interval_instances())
def test_universal_x_vertex_gives_gamma_one(case):
    g, _, sigma = case
    edges = list(g.edges()) + [(g.n1 + 1, j) for j in range(1, g.n2 + 1)]
    universal = build_graph(g.n1 + 1, g.n2, edges)
    r = solve_exact(universal, compute_lex_convex_ordering(universal, sigma))
    assert r.gamma_ve == 1
