import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import veds
from veds import (
    ContractError,
    DomainError,
    GeneratorConfig,
    InputError,
    SetSystem,
    VedsError,
    approx_set_cover,
    brute_force_gamma_ve,
    brute_force_min_cover,
    build_graph,
    cover_to_vedset,
    format_graph_text,
    gen_random_convex_bipartite,
    is_ve_dominating_set,
    reduce_comb_convex,
    reduce_star_convex,
    vedset_to_cover,
    verify_tree_convexity,
    xref,
    yref,
)


def system(p, *sets):
    return SetSystem(p, tuple(frozenset(s) for s in sets))


def brute_ved_solver(g):
    return brute_force_gamma_ve(g, max_vertices=23).witness


def random_coverable_system(rng, max_p=5):
    while True:
        p = rng.randint(1, max_p)
        q = rng.randint(1, p)
        sets = [
            frozenset(e for e in range(1, p + 1) if rng.random() < 0.55) or frozenset({rng.randint(1, p)})
            for _ in range(q)
        ]
        ss = SetSystem(p, tuple(sets))
        if ss.is_cover(range(1, q + 1)):
            return ss


def test_set_system_validation():
    with pytest.raises(InputError):
        system(0, {1})
    with pytest.raises(InputError):
        system(2, set())
    with pytest.raises(InputError):
        system(2, {3})
    assert system(3, {1}, {2, 3}).is_cover([1, 2])
    assert not system(3, {1}).is_cover([1])
    for bad in (0, 3):
        with pytest.raises(InputError) as raised:
            system(2, {1}, {2}).is_cover([1, bad])
        assert str(raised.value) == f"set index {bad} out of range (q=2)"


def test_star_reduction_shape_small():
    art = reduce_star_convex(system(2, {1}, {1, 2}))
    assert (art.graph.n1, art.graph.n2) == (4, 5)
    assert art.graph.m == 9
    roles = dict(art.vertex_roles)
    assert roles["u"] == xref(3) and roles["v"] == yref(5) and roles["u'"] == xref(4)
    assert art.certificate.kind == "star" and art.certificate.center == 3


def test_star_reduction_smallest():
    art = reduce_star_convex(system(1, {1}))
    assert (art.graph.n1, art.graph.n2, art.graph.m) == (3, 3, 5)


def test_star_reduction_roundtrip_p3():
    ss = system(3, {1, 2}, {2, 3}, {3})
    assert len(brute_force_min_cover(ss)) == 2
    art = reduce_star_convex(ss)
    assert brute_force_gamma_ve(art.graph).gamma_ve == 3


def test_comb_reduction_shape_small():
    art = reduce_comb_convex(system(2, {1}, {1, 2}))
    assert (art.graph.n1, art.graph.n2) == (6, 5)
    assert art.graph.m == 13
    assert art.certificate.backbone == (3, 4, 5)


def test_comb_reduction_smallest():
    art = reduce_comb_convex(system(1, {1}))
    assert (art.graph.n1, art.graph.n2) == (4, 3)
    assert art.certificate.backbone == (2, 3)
    teeth = dict(art.certificate.teeth)
    assert teeth == {2: 1, 3: 4}  # a1 under r1, pendant under r2


def test_comb_reduction_roundtrip_p3():
    ss = system(3, {1, 2}, {2, 3}, {3})
    art = reduce_comb_convex(ss)
    assert brute_force_gamma_ve(art.graph).gamma_ve == 3


def test_reductions_reject_large_families():
    ss = system(1, {1})
    big = SetSystem(1, (frozenset({1}), frozenset({1})))
    with pytest.raises(ContractError, match="no larger than the universe"):
        reduce_star_convex(big)
    with pytest.raises(ContractError):
        reduce_comb_convex(big)
    reduce_star_convex(ss)  # boundary q == p is fine


def test_reductions_reject_an_empty_family():
    for reduce in (reduce_star_convex, reduce_comb_convex):
        with pytest.raises(ContractError) as raised:
            reduce(SetSystem(1, ()))
        assert str(raised.value) == "reduction requires at least one set"


def test_size_formulas_hold():
    rng = random.Random(41)
    for _ in range(60):
        ss = random_coverable_system(rng)
        p, q = ss.universe, ss.q
        assert reduce_star_convex(ss).graph.n == 2 * p + q + 3
        assert reduce_comb_convex(ss).graph.n == 3 * p + q + 3


def test_cover_to_vedset_star():
    art = reduce_star_convex(system(2, {1}, {1, 2}))
    d = cover_to_vedset(art, {2})
    assert d == {yref(2), xref(3)}
    assert is_ve_dominating_set(art.graph, d)


def test_cover_to_vedset_comb():
    art = reduce_comb_convex(system(2, {1}, {1, 2}))
    d = cover_to_vedset(art, {2})
    assert d == {yref(2), xref(5)}  # b2 plus the last backbone vertex


def test_cover_to_vedset_full_family():
    ss = system(3, {1, 2}, {2, 3}, {3})
    art = reduce_star_convex(ss)
    d = cover_to_vedset(art, {1, 2, 3})
    assert len(d) == ss.q + 1


def test_cover_to_vedset_rejects_noncover():
    art = reduce_star_convex(system(2, {1}, {1, 2}))
    with pytest.raises(ContractError):
        cover_to_vedset(art, {1})


def test_vedset_to_cover_plain():
    art = reduce_star_convex(system(2, {1}, {1, 2}))
    assert vedset_to_cover(art, {yref(2), xref(3)}) == {2}


def test_vedset_to_cover_drops_private():
    art = reduce_star_convex(system(2, {1}, {1, 2}))
    # {z1, b2, u}: z1 is redundant because b2 already covers element 1.
    cover = vedset_to_cover(art, {yref(3), yref(2), xref(3)})
    assert cover == {2}


def test_vedset_to_cover_whole_vertex_set():
    art = reduce_star_convex(system(3, {1, 2}, {2, 3}, {3}))
    cover = vedset_to_cover(art, set(art.graph.vertices()))
    assert art.system.is_cover(cover)
    assert len(cover) <= art.graph.n - 1


def test_vedset_to_cover_rejects_nondominating():
    art = reduce_star_convex(system(2, {1}, {1, 2}))
    with pytest.raises(ContractError):
        vedset_to_cover(art, {yref(2)})


def test_vedset_to_cover_comb_backbone_vertices():
    ss = system(2, {1}, {1, 2})
    art = reduce_comb_convex(ss)
    d = brute_force_gamma_ve(art.graph).witness
    cover = vedset_to_cover(art, d)
    assert ss.is_cover(cover)
    assert len(cover) <= len(d) - 1


def test_tree_convexity_on_reduction_outputs():
    rng = random.Random(43)
    for _ in range(50):
        ss = random_coverable_system(rng)
        for art in (reduce_star_convex(ss), reduce_comb_convex(ss)):
            assert verify_tree_convexity(art.graph, art.certificate).ok


def test_tree_convexity_detects_violation():
    art = reduce_star_convex(system(2, {1}, {1, 2}))
    g = art.graph
    # Extra edge z1~a2: neither a1 nor a2 is the star centre, so N(z1) is
    # disconnected in the certificate.
    tampered = build_graph(g.n1, g.n2, list(g.edges()) + [(2, 3)])
    check = verify_tree_convexity(tampered, art.certificate)
    assert not check.ok and check.violator == 3


def test_tree_convexity_rejects_nontrees():
    art = reduce_star_convex(system(2, {1}, {1, 2}))
    bad = art.certificate.__class__(kind="star", edges=((1, 2),), center=1)
    with pytest.raises(InputError):
        verify_tree_convexity(art.graph, bad)


def test_every_minimum_vedset_converts_to_a_cover():
    from itertools import combinations

    for ss in (system(2, {1}, {1, 2}), system(3, {1, 2}, {2, 3}, {3})):
        t = len(brute_force_min_cover(ss))
        for art in (reduce_star_convex(ss), reduce_comb_convex(ss)):
            g = art.graph
            gamma = brute_force_gamma_ve(g, max_vertices=23).gamma_ve
            assert gamma == t + 1
            verts = sorted(g.vertices())
            minimums = [
                frozenset(combo)
                for combo in combinations(verts, gamma)
                if is_ve_dominating_set(g, combo)
            ]
            assert minimums
            for d in minimums:
                cover = vedset_to_cover(art, d)
                assert ss.is_cover(cover)
                assert len(cover) <= len(d) - 1


def test_roundtrip_equality_random_systems():
    rng = random.Random(47)
    for _ in range(40):
        ss = random_coverable_system(rng, max_p=4)
        t = len(brute_force_min_cover(ss))
        star = brute_force_gamma_ve(reduce_star_convex(ss).graph, max_vertices=23)
        comb = brute_force_gamma_ve(reduce_comb_convex(ss).graph, max_vertices=23)
        assert star.gamma_ve == t + 1
        assert comb.gamma_ve == t + 1


def test_approx_cover_phase1():
    ss = system(2, {1}, {1, 2})
    assert approx_set_cover(ss, 1, brute_ved_solver) == {2}


def test_approx_cover_phase2():
    ss = system(3, {1, 2}, {2, 3}, {3})
    cover = approx_set_cover(ss, 1, brute_ved_solver)
    assert ss.is_cover(cover)
    assert len(cover) == 2


def test_approx_cover_full_depth_is_exact():
    rng = random.Random(53)
    for _ in range(25):
        ss = random_coverable_system(rng, max_p=4)
        cover = approx_set_cover(ss, ss.q, brute_ved_solver)
        assert ss.is_cover(cover)
        assert len(cover) == len(brute_force_min_cover(ss))


def test_approx_cover_rejects_coverless():
    ss = system(3, {1})
    with pytest.raises(DomainError):
        approx_set_cover(ss, 2, brute_ved_solver)


def test_approx_cover_refuses_a_huge_coverless_universe_in_little_memory():
    # Whether a cover exists is a yes/no question about the sets' union; it
    # needs no universe-sized set (94.5 MiB here when it built one).
    ss = SetSystem(10**6, (frozenset({1}), frozenset({2})))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="some element lies in no set"):
            approx_set_cover(ss, 2, brute_ved_solver)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def digest_systems():
    """600 seeded set systems with p <= 9 and q <= p; some leave an element
    uncovered."""
    rng = random.Random(59)
    out = []
    for _ in range(600):
        p = rng.randint(1, 9)
        q = rng.randint(1, p)
        density = rng.uniform(0.25, 0.8)
        sets = [
            frozenset(e for e in range(1, p + 1) if rng.random() < density)
            or frozenset({rng.randint(1, p)})
            for _ in range(q)
        ]
        out.append(SetSystem(p, tuple(sets)))
    return out


def test_reduction_outputs_digest():
    # sha256 over the graph text, the certificate fields and the vertex
    # roles of both reductions of 600 seeded set systems.  Any change to a
    # vertex position, an edge, a role name or the witness tree shows here.
    h = hashlib.sha256()
    for ss in digest_systems():
        for art in (reduce_star_convex(ss), reduce_comb_convex(ss)):
            c = art.certificate
            line = (
                format_graph_text(art.graph),
                (c.kind, c.edges, c.center, c.backbone, c.teeth),
                [(name, ref.name()) for name, ref in art.vertex_roles],
                not art.system.is_cover(range(1, art.system.q + 1)),
            )
            h.update(repr(line).encode() + b"\n")
    assert h.hexdigest() == (
        "93f91dbbc08fda700ace7e2618cddac7d28483ead5a6024cabec4015380c453c"
    )


def _outcome(f, *args):
    try:
        return f(*args)
    except VedsError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_cover_search_digest():
    # sha256 over the tie-breaks of every exhaustive cover search and of the
    # VED-set normalisation: brute_force_min_cover on 600 systems, and on the
    # systems with p <= 4 the brute-force witnesses of both reduced graphs,
    # approx_set_cover at every depth k, and vedset_to_cover (result or
    # error text) on 20 random vertex subsets of each reduced graph; then the
    # brute-force witnesses of 300 random convex graphs with n <= 14.
    rng = random.Random(61)
    h = hashlib.sha256()

    def put(value):
        h.update(repr(value).encode() + b"\n")

    def ved_solver(g):
        return brute_force_gamma_ve(g, max_vertices=23).witness

    for ss in digest_systems():
        cover = brute_force_min_cover(ss)
        put(sorted(cover) if cover is not None else None)
        if ss.universe > 4:
            continue
        for art in (reduce_star_convex(ss), reduce_comb_convex(ss)):
            r = brute_force_gamma_ve(art.graph, max_vertices=23)
            put((r.gamma_ve, sorted(r.witness)))
            verts = list(art.graph.vertices())
            for _ in range(20):
                keep = rng.uniform(0.2, 0.9)
                d = {v for v in verts if rng.random() < keep}
                got = _outcome(vedset_to_cover, art, d)
                put(sorted(got) if isinstance(got, frozenset) else got)
        for k in range(ss.q + 1):
            got = _outcome(approx_set_cover, ss, k, ved_solver)
            put(sorted(got) if isinstance(got, frozenset) else got)
    for seed in range(300):
        n1 = rng.randint(1, 8)
        cfg = GeneratorConfig(n1, rng.randint(1, 14 - n1), rng.uniform(0.2, 0.8), seed)
        r = brute_force_gamma_ve(gen_random_convex_bipartite(cfg))
        put((r.gamma_ve, sorted(r.witness)))
    assert h.hexdigest() == (
        "3554e979b741a99aa2205f6bd05e01f4ec8fc21f3a86f98f301a4137d6d0e4ef"
    )


def test_reduction_contract_checks_survive_python_O():
    # Under -O the interpreter strips asserts; the round trip's own checks
    # must still run, and raise when the checkers reject the result.
    script = (
        "import veds.reductions as r\n"
        "from veds import ContractError, SetSystem, xref, yref\n"
        "ss = SetSystem(2, (frozenset({1}), frozenset({1, 2})))\n"
        "art = r.reduce_star_convex(ss)\n"
        "print(__debug__, sorted(v.name() for v in r.cover_to_vedset(art, {2})))\n"
        "real = r.is_ve_dominating_set\n"
        "r.is_ve_dominating_set = lambda g, d: False\n"
        "try:\n"
        "    r.cover_to_vedset(art, {2})\n"
        "except ContractError as exc:\n"
        "    print('cover_to_vedset raised:', exc)\n"
        "r.is_ve_dominating_set = real\n"
        "# Accept the cover {1, 2} and reject the {2} that {b2, z1, u} normalises to.\n"
        "SetSystem.is_cover = lambda self, indices: len(set(indices)) > 1\n"
        "print(sorted(v.name() for v in r.cover_to_vedset(art, {1, 2})))\n"
        "try:\n"
        "    r.vedset_to_cover(art, {yref(2), yref(3), xref(3)})\n"
        "except ContractError as exc:\n"
        "    print('vedset_to_cover raised:', exc)\n"
    )
    src = str(Path(veds.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "False ['x3', 'y2']",
        "cover_to_vedset raised: cover_to_vedset built an invalid VED-set from [2]",
        "['x3', 'y1', 'y2']",
        "vedset_to_cover raised: vedset_to_cover normalised to [2], not a cover",
    ]
