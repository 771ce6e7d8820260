"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
random suites are seeded and shared across criteria through module-scoped
fixtures, so each instance is generated and solved once.
"""

import math
import random
import time
from dataclasses import dataclass

import pytest

from veds import (
    GeneratorConfig,
    SetSystem,
    brute_force_gamma_ve,
    brute_force_min_cover,
    compute_lex_convex_ordering,
    counterexample_graph,
    cover_to_vedset,
    decompose,
    gen_random_convex_bipartite,
    identity_permutation,
    is_ve_dominating_set,
    approx_set_cover,
    reduce_comb_convex,
    reduce_star_convex,
    solve_baseline,
    solve_exact,
    vedset_to_cover,
    verify_decomposition_lemma,
    verify_tree_convexity,
)
from veds.oracle import random_connected_instance

CONVEX_TRIALS = 1000
CONVEX_SIZE_CAP = 14
LEMMA_TRIALS = 1000
LEMMA_SIZE_CAP = 200
SYSTEM_TRIALS = 500
BENCH_SIZES = (200, 400, 800, 1600)
SEED = 20250811


def report(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@dataclass
class ConvexRecord:
    graph: object
    ordering: object
    exact: object
    baseline: object
    truth: int


@pytest.fixture(scope="module")
def convex_suite():
    records = []
    for t in range(CONVEX_TRIALS):
        rng = random.Random(SEED * 1_000_003 + t)
        g = random_connected_instance(rng, CONVEX_SIZE_CAP)
        ordering = compute_lex_convex_ordering(g, identity_permutation(g.n2))
        records.append(
            ConvexRecord(
                graph=g,
                ordering=ordering,
                exact=solve_exact(g, ordering),
                baseline=solve_baseline(g, ordering),
                truth=brute_force_gamma_ve(g).gamma_ve,
            )
        )
    return records


@dataclass
class SystemRecord:
    system: SetSystem
    min_cover: frozenset
    star: object
    comb: object
    star_gamma: object
    comb_gamma: object


def _random_coverable_system(rng: random.Random) -> SetSystem:
    while True:
        p = rng.randint(1, 5)
        q = rng.randint(1, p)
        sets = []
        for _ in range(q):
            members = frozenset(e for e in range(1, p + 1) if rng.random() < 0.55)
            sets.append(members or frozenset({rng.randint(1, p)}))
        ss = SetSystem(p, tuple(sets))
        if not ss.uncovered_elements():
            return ss


@pytest.fixture(scope="module")
def system_suite():
    records = []
    for t in range(SYSTEM_TRIALS):
        rng = random.Random(SEED * 7_777_777 + t)
        ss = _random_coverable_system(rng)
        star = reduce_star_convex(ss)
        comb = reduce_comb_convex(ss)
        records.append(
            SystemRecord(
                system=ss,
                min_cover=brute_force_min_cover(ss),
                star=star,
                comb=comb,
                star_gamma=brute_force_gamma_ve(star.graph, max_vertices=23),
                comb_gamma=brute_force_gamma_ve(comb.graph, max_vertices=23),
            )
        )
    return records


def test_criterion_1_oracle_equivalence(convex_suite):
    started = time.perf_counter()
    mismatches = [r for r in convex_suite if r.exact.gamma_ve != r.truth]
    elapsed = time.perf_counter() - started
    ok = not mismatches and len(convex_suite) >= 1000 and elapsed < 300
    report(
        1,
        f"exact == brute force on {len(convex_suite)} random connected convex "
        f"instances (n <= {CONVEX_SIZE_CAP}), {len(mismatches)} mismatches",
        ok,
    )


def test_criterion_2_counterexample_reproduction():
    started = time.perf_counter()
    g = counterexample_graph()
    ordering = compute_lex_convex_ordering(g, identity_permutation(g.n2))
    base = solve_baseline(g, ordering)
    exact = solve_exact(g, ordering)
    truth = brute_force_gamma_ve(g)
    elapsed = time.perf_counter() - started
    ok = (
        base.gamma_ve == 2
        and exact.gamma_ve == 1
        and truth.gamma_ve == 1
        and elapsed < 1.0
    )
    report(
        2,
        f"baseline={base.gamma_ve} vs exact={exact.gamma_ve} vs "
        f"oracle={truth.gamma_ve} on the shipped counterexample in {elapsed:.3f}s",
        ok,
    )


def test_criterion_3_reduction_roundtrip(system_suite):
    started = time.perf_counter()
    bad = 0
    for r in system_suite:
        t = len(r.min_cover)
        if r.star_gamma.gamma_ve != t + 1 or r.comb_gamma.gamma_ve != t + 1:
            bad += 1
    elapsed = time.perf_counter() - started
    ok = bad == 0 and len(system_suite) >= 500 and elapsed < 600
    report(
        3,
        f"min cover + 1 == gamma_ve for star and comb reductions on "
        f"{len(system_suite)} systems, {bad} failures",
        ok,
    )


def test_criterion_4_certificate_validity(system_suite):
    bad = sum(
        1
        for r in system_suite
        if not verify_tree_convexity(r.star.graph, r.star.certificate).ok
        or not verify_tree_convexity(r.comb.graph, r.comb.certificate).ok
    )
    report(
        4,
        f"tree-convexity certificates valid on all {len(system_suite)} "
        f"star and comb outputs, {bad} failures",
        bad == 0,
    )


def test_criterion_5_structural_lemma_suite():
    failures = 0
    for t in range(LEMMA_TRIALS):
        rng = random.Random(SEED * 31_337 + t)
        g = random_connected_instance(rng, LEMMA_SIZE_CAP)
        ordering = compute_lex_convex_ordering(g, identity_permutation(g.n2))
        checks = verify_decomposition_lemma(g, decompose(g, ordering))
        if not all(c.ok for c in checks):
            failures += 1
    report(
        5,
        f"decomposition lemma clauses pass on {LEMMA_TRIALS} random connected "
        f"instances (n <= {LEMMA_SIZE_CAP}), {failures} failures",
        failures == 0,
    )


def test_criterion_6_complexity_sanity():
    timings = {}
    for total in BENCH_SIZES:
        n1 = n2 = total // 2
        g = gen_random_convex_bipartite(
            GeneratorConfig(n1, n2, 0.1, SEED + total, require_connected=True)
        )
        ordering = compute_lex_convex_ordering(g, identity_permutation(n2))
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            solve_exact(g, ordering)
            best = min(best, time.perf_counter() - started)
        timings[total] = best
    slope = math.log(timings[1600] / timings[800], 2)
    ok = all(t < 10.0 for t in timings.values()) and slope <= 2.5
    pretty = ", ".join(f"n={k}: {v * 1000:.1f}ms" for k, v in timings.items())
    report(6, f"{pretty}; log-log slope over the top sizes = {slope:.2f}", ok)


def test_criterion_7_witness_contract(convex_suite, system_suite):
    bad = 0
    for r in convex_suite:
        for result in (r.exact, r.baseline):
            if len(result.witness) != result.gamma_ve or not is_ve_dominating_set(
                r.graph, result.witness
            ):
                bad += 1
    g = counterexample_graph()
    ordering = compute_lex_convex_ordering(g, identity_permutation(g.n2))
    for result in (
        solve_exact(g, ordering),
        solve_baseline(g, ordering),
    ):
        if len(result.witness) != result.gamma_ve or not is_ve_dominating_set(
            g, result.witness
        ):
            bad += 1
    for r in system_suite:
        for art, res in ((r.star, r.star_gamma), (r.comb, r.comb_gamma)):
            if len(res.witness) != res.gamma_ve or not is_ve_dominating_set(
                art.graph, res.witness
            ):
                bad += 1
            lifted = cover_to_vedset(art, r.min_cover)
            if len(lifted) != len(r.min_cover) + 1 or not is_ve_dominating_set(
                art.graph, lifted
            ):
                bad += 1
    report(
        7,
        f"all solver and conversion outputs verify and match their counts "
        f"({bad} violations)",
        bad == 0,
    )


def test_criterion_8_cover_algorithm_behavior(system_suite):
    solver_runs = [0]

    def ved_solver(graph):
        solver_runs[0] += 1
        return brute_force_gamma_ve(graph, max_vertices=23).witness

    bad_phase1 = 0
    for r in system_suite:
        cover = approx_set_cover(r.system, r.system.q, ved_solver)
        if len(cover) != len(r.min_cover) or not r.system.is_cover(cover):
            bad_phase1 += 1
    phase1_runs = solver_runs[0]

    hard = [r for r in system_suite if len(r.min_cover) > 1]
    bad_phase2 = 0
    for r in hard:
        before = solver_runs[0]
        cover = approx_set_cover(r.system, 1, ved_solver)
        engaged = solver_runs[0] == before + 1
        if not engaged or not r.system.is_cover(cover):
            bad_phase2 += 1
    ok = bad_phase1 == 0 and bad_phase2 == 0 and phase1_runs == 0 and len(hard) > 0
    report(
        8,
        f"k >= q stays in exhaustive phase and is minimum on all "
        f"{len(system_suite)} systems; k = 1 engages the reduction on all "
        f"{len(hard)} systems with min cover > 1 ({bad_phase1 + bad_phase2} failures)",
        ok,
    )
