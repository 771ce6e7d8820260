import hashlib
import math
import random

import pytest

import veds.oracle
from veds import (
    CapacityError,
    GenerationError,
    GeneratorConfig,
    SetSystem,
    brute_force_gamma_ve,
    brute_force_min_cover,
    build_graph,
    connected_components,
    cross_check,
    format_graph_text,
    gen_random_convex_bipartite,
    is_ve_dominating_set,
    parse_graph_text,
    validate_convex_ordering,
    xref,
    yref,
)
from veds.oracle import GENERATION_RETRIES, _geometric, random_connected_instance

from conftest import naive_ve_dominates


def test_brute_force_counterexample(counterexample):
    r = brute_force_gamma_ve(counterexample)
    assert r.gamma_ve == 1
    assert r.witness == {yref(2)}


def test_brute_force_edgeless():
    r = brute_force_gamma_ve(build_graph(2, 1, []))
    assert r.gamma_ve == 0 and r.witness == frozenset()


def test_brute_force_p8(p8):
    assert brute_force_gamma_ve(p8).gamma_ve == 2


def test_brute_force_capacity():
    g = build_graph(12, 12, [(1, 1)])
    with pytest.raises(CapacityError):
        brute_force_gamma_ve(g)
    # an explicit cap raise admits the same instance
    assert brute_force_gamma_ve(g, max_vertices=24).gamma_ve == 1


def test_brute_force_ties_break_lexicographically():
    # Both x1 and y1 alone dominate the single edge; x-side wins the tie.
    g = build_graph(1, 1, [(1, 1)])
    assert brute_force_gamma_ve(g).witness == {xref(1)}


def test_brute_force_witness_is_valid_naively(counterexample, p8):
    for g in (counterexample, p8):
        r = brute_force_gamma_ve(g)
        assert naive_ve_dominates(g, r.witness)
        assert is_ve_dominating_set(g, r.witness)


def test_min_cover_examples():
    ss = SetSystem(2, (frozenset({1}), frozenset({1, 2})))
    assert brute_force_min_cover(ss) == {2}
    ss3 = SetSystem(3, (frozenset({1, 2}), frozenset({2, 3}), frozenset({3})))
    assert len(brute_force_min_cover(ss3)) == 2


def test_min_cover_none_when_uncoverable():
    ss = SetSystem(3, (frozenset({1}), frozenset({2})))
    assert brute_force_min_cover(ss) is None


def test_min_cover_capacity():
    ss = SetSystem(21, tuple(frozenset({i}) for i in range(1, 22)))
    with pytest.raises(CapacityError):
        brute_force_min_cover(ss)


def test_generator_single_cell():
    for seed in (0, 1, 99):
        g = gen_random_convex_bipartite(GeneratorConfig(1, 1, 1.0, seed))
        assert list(g.edges()) == [(1, 1)]


def test_generator_deterministic():
    cfg = GeneratorConfig(4, 4, 0.5, 42)
    assert gen_random_convex_bipartite(cfg) == gen_random_convex_bipartite(cfg)


def test_generator_output_is_identity_convex():
    rng = random.Random(61)
    for _ in range(50):
        cfg = GeneratorConfig(
            rng.randint(1, 8), rng.randint(1, 8), rng.uniform(0.1, 1.0), rng.getrandbits(32)
        )
        g = gen_random_convex_bipartite(cfg)
        assert validate_convex_ordering(g, tuple(range(1, g.n2 + 1))).ok


def test_generator_connectivity_flag():
    g = gen_random_convex_bipartite(GeneratorConfig(3, 5, 0.9, 7, require_connected=True))
    assert len(connected_components(g)) == 1


def test_generator_retry_exhaustion():
    # Interval length is pinned to 1 at this density, so n2 > 1 can never
    # come out connected with a single x vertex.
    with pytest.raises(GenerationError, match="density"):
        gen_random_convex_bipartite(GeneratorConfig(1, 10, 0.01, 3, require_connected=True))


def _pinned_configs():
    """480 fixed configs: connected on and off, sides up to 300, and
    densities low enough that 90 of them exhaust the retries."""
    rng = random.Random(8_2026)
    configs = []
    for k in range(480):
        cap = 300 if k % 24 == 0 else 16
        n1, n2 = rng.randint(1, cap), rng.randint(1, cap)
        density = rng.choice(
            (rng.uniform(0.002, 0.05), rng.uniform(0.05, 0.4), rng.uniform(0.4, 1.0), 1.0)
        )
        configs.append(GeneratorConfig(n1, n2, density, rng.getrandbits(32), k % 2 == 0))
    return configs


def _never_connected(cfg):
    """Whether the generator refuses ``cfg`` before drawing: a connected
    request whose intervals all have length 1 over two or more positions."""
    return cfg.require_connected and cfg.n2 > 1 and cfg.density * cfg.n2 <= 1.0


def test_generator_output_is_pinned():
    # The digest was taken before connectivity was decided on the drawn
    # intervals and before unconnectable configs were refused without a
    # draw; any change to what a seed yields shows here.
    digest = hashlib.sha256()
    refused = exhausted = 0
    for cfg in _pinned_configs():
        try:
            digest.update(format_graph_text(gen_random_convex_bipartite(cfg)).encode())
        except GenerationError as exc:
            if _never_connected(cfg):
                refused += 1
            else:
                exhausted += 1
            digest.update(f"GenerationError: {exc}\n".encode())
        else:
            assert not _never_connected(cfg), cfg
    assert (refused, exhausted) == (79, 11)
    assert digest.hexdigest() == (
        "336fc24dcb2d838cabd32799efe9cbee4f81812bfa4dc494721c557ce2fae078"
    )


def _reference_generator(cfg, rejected):
    """The generator's draw loop with every draw built and its connectivity
    read off connected_components; notes why each draw was rejected."""
    rng = random.Random(cfg.seed)
    mean = cfg.density * cfg.n2
    for _ in range(GENERATION_RETRIES):
        edges = []
        for i in range(1, cfg.n1 + 1):
            length = min(cfg.n2, _geometric(rng, mean))
            a = rng.randint(1, cfg.n2 - length + 1)
            edges.extend((i, j) for j in range(a, a + length))
        g = build_graph(cfg.n1, cfg.n2, edges)
        if not cfg.require_connected or len(connected_components(g)) == 1:
            return g
        # Disconnected with every Y covered: two intervals touch, such as
        # [1, 2] and [3, 4], without sharing a Y vertex.
        rejected.add("touching" if len(set().union(*g.adj_x)) == g.n2 else "uncovered")
    raise GenerationError(
        f"no connected instance after {GENERATION_RETRIES} draws "
        f"(n1={cfg.n1}, n2={cfg.n2}, density={cfg.density}); try a higher density"
    )


def test_generator_matches_build_every_draw_reference():
    # Every side size from 1 to 6, n1 = 1 and n2 = 1 included.
    rng = random.Random(2718)
    rejected = set()
    outcomes = set()
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            for _ in range(60):
                cfg = GeneratorConfig(
                    n1, n2, rng.uniform(0.3, 1.0), rng.getrandbits(32), rng.random() < 0.8
                )
                try:
                    expected = _reference_generator(cfg, rejected)
                except GenerationError as exc:
                    with pytest.raises(GenerationError) as got:
                        gen_random_convex_bipartite(cfg)
                    assert str(got.value) == str(exc)
                    outcomes.add("error")
                else:
                    assert gen_random_convex_bipartite(cfg) == expected, cfg
                    outcomes.add("graph")
    assert rejected == {"touching", "uncovered"}
    assert outcomes == {"graph", "error"}


def _outcome(generate, cfg):
    """The graph ``generate(cfg)`` returns, or the text of its GenerationError."""
    try:
        return generate(cfg)
    except GenerationError as exc:
        return f"GenerationError: {exc}"


def _least_density_over(n2):
    """The least float density whose mean interval length exceeds 1.0."""
    density = 1 / n2
    while density * n2 <= 1.0:
        density = math.nextafter(density, 1.0)
    return density


def _boundary_configs():
    for n1 in (1, 2, 5):
        for seed in (0, 1, 77):
            # Mean interval length exactly 1.0: refused without a draw.
            yield GeneratorConfig(n1, 2, 0.5, seed, True)
            yield GeneratorConfig(n1, 3, 1 / 3, seed, True)
            yield GeneratorConfig(n1, 4, 0.25, seed, True)
            # One Y position: every draw is connected however short.
            yield GeneratorConfig(n1, 1, 0.5, seed, True)
            yield GeneratorConfig(n1, 1, 1.0, seed, True)
            # Mean just above 1.0: the draw loop runs.
            for n2 in (2, 3, 4):
                yield GeneratorConfig(n1, n2, _least_density_over(n2), seed, True)
            # Connectivity not asked for: every config draws.
            yield GeneratorConfig(n1, 2, 0.25, seed, False)
            yield GeneratorConfig(n1, 4, 0.25, seed, False)


class _CountingRandom(random.Random):
    """Counts ``random`` and ``getrandbits`` calls; fails past ``cap`` of them,
    so a generator that draws where it should not fails fast."""

    calls = 0
    cap = math.inf

    def _count(self):
        _CountingRandom.calls += 1
        assert _CountingRandom.calls <= _CountingRandom.cap, "drew past the cap"

    def random(self):
        self._count()
        return super().random()

    def getrandbits(self, k):
        self._count()
        return super().getrandbits(k)


def test_generator_boundary_matches_full_loop(monkeypatch):
    monkeypatch.setattr(veds.oracle.random, "Random", _CountingRandom)
    monkeypatch.setattr(_CountingRandom, "calls", 0)
    outcomes = set()
    for cfg in _boundary_configs():
        _CountingRandom.calls = 0
        got = _outcome(gen_random_convex_bipartite, cfg)
        # Only a refused config draws nothing; mean exactly 1.0 is refused.
        assert (_CountingRandom.calls == 0) == _never_connected(cfg), cfg
        assert got == _outcome(lambda c: _reference_generator(c, set()), cfg), cfg
        if cfg.n2 == 1:
            assert list(got.edges()) == [(i, 1) for i in range(1, cfg.n1 + 1)]
        outcomes.add(
            (_never_connected(cfg), "error" if isinstance(got, str) else "graph")
        )
    # Exhausted retries just above the threshold, graphs on both sides of it.
    assert outcomes == {(True, "error"), (False, "error"), (False, "graph")}


def test_generator_refuses_unconnectable_config_without_drawing(monkeypatch):
    monkeypatch.setattr(veds.oracle.random, "Random", _CountingRandom)
    monkeypatch.setattr(_CountingRandom, "calls", 0)
    # The counter sees the draws of a config that does draw.
    gen_random_convex_bipartite(GeneratorConfig(3, 2, 0.75, 1, True))
    assert _CountingRandom.calls > 0
    _CountingRandom.calls = 0
    monkeypatch.setattr(_CountingRandom, "cap", 0)
    with pytest.raises(GenerationError) as exc:
        gen_random_convex_bipartite(GeneratorConfig(10**6, 2, 0.25, 1, True))
    assert _CountingRandom.calls == 0
    assert str(exc.value) == (
        "no connected instance after 500 draws "
        "(n1=1000000, n2=2, density=0.25); try a higher density"
    )


def test_generator_refuses_past_the_capacity_without_drawing(monkeypatch):
    # At most MAX_DECLARED vertices and MAX_DECLARED expected edges, n1 times
    # the mean interval length (at least 1, at most n2); the bound itself
    # is allowed.
    monkeypatch.setattr(veds.oracle, "MAX_DECLARED", 100)
    monkeypatch.setattr(veds.oracle.random, "Random", _CountingRandom)
    monkeypatch.setattr(_CountingRandom, "calls", 0)
    for n1, n2, density in ((50, 50, 0.02), (10, 20, 0.5), (10, 10, 1.0), (99, 1, 1.0)):
        assert gen_random_convex_bipartite(GeneratorConfig(n1, n2, density, 1)).n1 == n1
    monkeypatch.setattr(_CountingRandom, "cap", 0)
    for n1, n2, density in ((50, 51, 0.01), (10, 20, 0.55), (11, 10, 1.0), (100, 1, 1.0)):
        _CountingRandom.calls = 0
        with pytest.raises(CapacityError) as exc:
            gen_random_convex_bipartite(GeneratorConfig(n1, n2, density, 1, True))
        assert _CountingRandom.calls == 0
        assert str(exc.value) == (
            "the generator is capped at 100 vertices and 100 expected edges "
            f"(n1={n1}, n2={n2}, density={density})"
        )


def test_generator_rejects_bad_config():
    from veds.errors import InputError

    with pytest.raises(InputError):
        gen_random_convex_bipartite(GeneratorConfig(0, 3, 0.5, 1))
    with pytest.raises(InputError):
        gen_random_convex_bipartite(GeneratorConfig(1, 3, 0.0, 1))


# ``veds bench --seed`` values the benchmark's many_small workload passes at
# its seeds 1 and 2, with what they gave before unconnectable configs were
# refused without a draw: the report text, a digest of the 99 random
# instances, and how many configs on the way were refused.
BENCH_STREAMS = {
    864539330: (
        "trials: 100\nagreements: 100\ndisagreements: 0\n"
        "baseline strict gaps: 1\nbaseline gap max: 1\nbaseline gap total: 1\n",
        "f519a753d4a3b8e4e9dbf723e6cf01eb26a65b8f89b4828d12095190bfea0966",
        6,
    ),
    220772712: (
        "trials: 100\nagreements: 100\ndisagreements: 0\n"
        "baseline strict gaps: 2\nbaseline gap max: 1\nbaseline gap total: 2\n",
        "b2c783dff4e7909f4038912e60e6ae7941167002db116388dcceeff345cf6c01",
        14,
    ),
}


@pytest.mark.parametrize("seed", sorted(BENCH_STREAMS))
def test_bench_stream_is_pinned(seed, monkeypatch):
    text, instances, refusals = BENCH_STREAMS[seed]
    assert cross_check(100, 14, seed).to_text() == text
    refused = []

    def generate(cfg):
        refused.append(_never_connected(cfg))
        return gen_random_convex_bipartite(cfg)

    monkeypatch.setattr(veds.oracle, "gen_random_convex_bipartite", generate)
    digest = hashlib.sha256()
    for t in range(1, 100):
        g = random_connected_instance(random.Random(seed * 1_000_003 + t), 14)
        digest.update(format_graph_text(g).encode())
    assert digest.hexdigest() == instances
    assert sum(refused) == refusals


def test_cross_check_empty():
    rep = cross_check(0, 10, 1)
    assert rep.trials == 0 and rep.agreements == 0 and not rep.disagreements


def test_cross_check_small_run_agrees():
    rep = cross_check(40, 12, 2024)
    assert rep.agreements == 40
    assert not rep.disagreements
    # Trial 0 is the shipped counterexample, whose baseline gap is 1.
    assert rep.strict_gap_trials >= 1
    assert rep.gap_max >= 1


def test_cross_check_solves_odd_trials_under_random_y_labellings(monkeypatch):
    # gamma_ve and the baseline's gap do not depend on the Y names, so the
    # renamed trials leave the report as it was.  An odd trial with n2 <= 1
    # or a drawn identity stays on the identity ordering.
    expected = cross_check(40, 12, 5)
    solve_exact, seen = veds.oracle.solve_exact, []

    def solve(g, ordering):
        seen.append((g, ordering.yperm))
        return solve_exact(g, ordering)

    monkeypatch.setattr(veds.oracle, "solve_exact", solve)
    assert cross_check(40, 12, 5) == expected
    moved = [t for t, (_, yperm) in enumerate(seen) if yperm != tuple(range(1, len(yperm) + 1))]
    assert len(moved) >= 4 and all(t % 2 for t in moved)

    # A disagreement on a renamed trial replays under the ordering it was
    # solved under: its text declares that yperm.
    def wrong(g, ordering):
        result = solve(g, ordering)
        if len(seen) - 1 == moved[0]:
            return result._replace(gamma_ve=result.gamma_ve + 1)
        return result

    seen.clear()
    monkeypatch.setattr(veds.oracle, "solve_exact", wrong)
    (d,) = cross_check(40, 12, 5).disagreements
    assert d.trial == moved[0]
    assert parse_graph_text(d.graph_text) == seen[moved[0]]


def test_cross_check_deterministic_byte_for_byte():
    a = cross_check(15, 10, 9).to_text()
    b = cross_check(15, 10, 9).to_text()
    assert a == b


def test_cross_check_report_shapes():
    rep = cross_check(5, 10, 4)
    text = rep.to_text()
    assert "trials: 5" in text
    payload = rep.to_json_dict()
    assert payload["trials"] == 5 and payload["agreements"] == 5
