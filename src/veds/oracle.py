"""Brute-force ground truth, random instance generation, and the
cross-checking harness that anchors the acceptance tests.

The subset enumerators are deliberately simple: edge-domination masks are
precomputed per vertex, then subsets are tried in increasing cardinality, so
the first hit is both minimum and lexicographically least.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .chains import _one_run
from .errors import CapacityError, GenerationError, InputError
from .graph import BipartiteGraph, _from_rows
from .io import MAX_DECLARED, format_graph_text
from .ordering import Interval, compute_lex_convex_ordering, identity_permutation
from .reductions import SetSystem, _least_cover
from .solver import SolveResult, counterexample_graph, solve_baseline, solve_exact

__all__ = [
    "GeneratorConfig",
    "Disagreement",
    "CrossCheckReport",
    "brute_force_gamma_ve",
    "brute_force_min_cover",
    "gen_random_convex_bipartite",
    "cross_check",
]

BRUTE_FORCE_VERTEX_LIMIT = 22
BRUTE_FORCE_SET_LIMIT = 20
GENERATION_RETRIES = 500


def brute_force_gamma_ve(
    g: BipartiteGraph, *, max_vertices: int = BRUTE_FORCE_VERTEX_LIMIT
) -> SolveResult:
    """Exhaustive minimum VED-set by increasing cardinality.

    Ties break to the lexicographically least member list over the vertex
    order x1..x{n1}, y1..y{n2}.  Capped by ``max_vertices``; callers that know
    their instances stay tractable may raise the cap explicitly.
    """
    if g.n > max_vertices:
        raise CapacityError(
            f"brute force is capped at {max_vertices} vertices (got {g.n})"
        )
    edges = list(g.edges())
    incident_x = [0] * (g.n1 + 1)
    incident_y = [0] * (g.n2 + 1)
    for k, (i, j) in enumerate(edges):
        incident_x[i] |= 1 << k
        incident_y[j] |= 1 << k
    # Edges dominated by v: those incident to v's closed neighbourhood.
    reach_x, reach_y = incident_x[:], incident_y[:]
    for i, j in edges:
        reach_x[i] |= incident_y[j]
        reach_y[j] |= incident_x[i]
    order = list(g.vertices())
    masks = reach_x[1:] + reach_y[1:]
    combo = _least_cover(masks, (1 << len(edges)) - 1, g.n)
    return SolveResult(len(combo), frozenset(order[k] for k in combo), ())


def brute_force_min_cover(ss: SetSystem) -> frozenset[int] | None:
    """Smallest subfamily covering the universe, or None when there is none."""
    if ss.q > BRUTE_FORCE_SET_LIMIT:
        raise CapacityError(
            f"cover search is capped at {BRUTE_FORCE_SET_LIMIT} sets (got {ss.q})"
        )
    # is_cover holds only the sets' union, not a universe-sized set.
    if not ss.is_cover(range(1, ss.q + 1)):
        return None
    masks = [sum(1 << (e - 1) for e in s) for s in ss.sets]
    return frozenset(k + 1 for k in _least_cover(masks, (1 << ss.universe) - 1, ss.q))


class GeneratorConfig(NamedTuple):
    """Knobs for the seeded convex-instance generator; identical configs
    reproduce identical instances."""

    n1: int
    n2: int
    density: float
    seed: int
    require_connected: bool = False


def _geometric(rng: random.Random, mean: float) -> int:
    if mean <= 1.0:
        return 1
    p = 1.0 / mean
    u = rng.random()
    return int(math.log1p(-u) / math.log1p(-p)) + 1


def gen_random_convex_bipartite(cfg: GeneratorConfig) -> BipartiteGraph:
    """Draw one Y-interval per X vertex; the result is convex on Y under the
    identity ordering by construction.

    Interval lengths are geometric around density * n2 (clipped to the side
    size).  With ``require_connected`` the instance is rejection-sampled; the
    retry budget exhausting raises a generation error suggesting a higher
    density.

    A draw is decided on its intervals alone: every X vertex has one, so the
    graph is connected iff the sorted intervals form a single overlap run
    spanning 1..n2.  That costs O(n1 log n1) per draw; only the accepted
    draw is built into a graph, one row per span, in O(n + m).

    A request of more than ``io.MAX_DECLARED`` vertices, or of more than
    that many expected edges (n1 times the mean interval length), is a
    ``CapacityError`` before any draw: ``veds solve`` refuses such a file,
    and drawing it would take unbounded time.  A connected request whose
    mean interval length is at most 1 over n2 >= 2 positions is refused
    before any draw too: every interval is then a single position, no two
    overlap, and every draw would be rejected.  The error is the one the
    exhausted retry budget gives.
    """
    if cfg.n1 < 1 or cfg.n2 < 1:
        raise InputError(f"generator needs n1, n2 >= 1 (got {cfg.n1}, {cfg.n2})")
    if not 0.0 < cfg.density <= 1.0:
        raise InputError(f"density must lie in (0, 1], got {cfg.density}")
    n1, n2 = cfg.n1, cfg.n2
    mean = cfg.density * n2
    if n1 + n2 > MAX_DECLARED or n1 * min(n2, max(1.0, mean)) > MAX_DECLARED:
        raise CapacityError(
            f"the generator is capped at {MAX_DECLARED} vertices and {MAX_DECLARED} "
            f"expected edges (n1={n1}, n2={n2}, density={cfg.density})"
        )
    rng = random.Random(cfg.seed)
    # _geometric returns 1 whenever mean <= 1.0: no two intervals overlap,
    # so no draw could connect n2 >= 2 positions.
    never_connected = cfg.require_connected and n2 > 1 and mean <= 1.0
    for _ in range(0 if never_connected else GENERATION_RETRIES):
        spans: list[Interval] = []
        for i in range(1, n1 + 1):
            length = min(n2, _geometric(rng, mean))
            a = rng.randint(1, n2 - length + 1)
            spans.append((a, a + length - 1, i))
        if cfg.require_connected and not _one_run(sorted(spans), n2):
            continue
        return _from_rows(n2, [list(range(a, b + 1)) for a, b, _ in spans])
    raise GenerationError(
        f"no connected instance after {GENERATION_RETRIES} draws "
        f"(n1={cfg.n1}, n2={cfg.n2}, density={cfg.density}); try a higher density"
    )


class Disagreement(NamedTuple):
    trial: int
    graph_text: str
    expected: int
    got: int


class CrossCheckReport(NamedTuple):
    trials: int
    agreements: int
    disagreements: tuple[Disagreement, ...]
    strict_gap_trials: int
    gap_total: int
    gap_max: int

    def to_text(self) -> str:
        lines = [
            f"trials: {self.trials}",
            f"agreements: {self.agreements}",
            f"disagreements: {len(self.disagreements)}",
            f"baseline strict gaps: {self.strict_gap_trials}",
            f"baseline gap max: {self.gap_max}",
            f"baseline gap total: {self.gap_total}",
        ]
        for d in self.disagreements:
            lines.append(
                f"trial {d.trial}: expected {d.expected}, got {d.got}; instance:"
            )
            lines.extend("  " + row for row in d.graph_text.splitlines())
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "agreements": self.agreements,
            "disagreements": [d._asdict() for d in self.disagreements],
            "baseline_strict_gaps": self.strict_gap_trials,
            "baseline_gap_max": self.gap_max,
            "baseline_gap_total": self.gap_total,
        }


def random_connected_instance(
    rng: random.Random, size_cap: int
) -> BipartiteGraph:
    """Draw sizes and density, then sample until a connected instance lands."""
    while True:
        n1 = rng.randint(1, size_cap - 1)
        n2 = rng.randint(1, size_cap - n1)
        density = rng.uniform(0.3, 0.95)
        try:
            return gen_random_convex_bipartite(
                GeneratorConfig(
                    n1=n1,
                    n2=n2,
                    density=density,
                    seed=rng.getrandbits(48),
                    require_connected=True,
                )
            )
        except GenerationError:
            continue


def cross_check(count: int, size_cap: int, seed: int) -> CrossCheckReport:
    """Run the exact solver against brute force on ``count`` instances.

    Trial 0 is always the shipped counterexample (so its baseline gap is on
    record); the rest are seeded random connected convex instances with
    n1 + n2 <= size_cap, Y renamed at random in the odd trials.  A
    disagreement ships its instance and yorder in the graph text format.
    """
    if size_cap < 2:
        raise InputError(f"size cap must be at least 2 vertices (got {size_cap})")
    if count < 0:
        raise InputError(f"trial count must not be negative (got {count})")
    agreements = 0
    disagreements: list[Disagreement] = []
    strict = 0
    gap_total = 0
    gap_max = 0
    for t in range(count):
        if t == 0:
            g = counterexample_graph()
        else:
            rng = random.Random(seed * 1_000_003 + t)
            g = random_connected_instance(rng, size_cap)
        yorder = identity_permutation(g.n2)
        if t % 2:  # y_j becomes y_{yorder[j - 1]}
            yorder = tuple(rng.sample(yorder, g.n2))
            g = _from_rows(g.n2, [[yorder[j - 1] for j in row] for row in g.adj_x])
        ordering = compute_lex_convex_ordering(g, yorder)
        exact = solve_exact(g, ordering)
        truth = brute_force_gamma_ve(g, max_vertices=max(BRUTE_FORCE_VERTEX_LIMIT, size_cap))
        if exact.gamma_ve == truth.gamma_ve:
            agreements += 1
        else:
            disagreements.append(
                Disagreement(
                    t,
                    format_graph_text(g, yorder=yorder),
                    truth.gamma_ve,
                    exact.gamma_ve,
                )
            )
        baseline = solve_baseline(g, ordering)
        gap = baseline.gamma_ve - exact.gamma_ve
        gap_total += gap
        gap_max = max(gap_max, gap)
        if gap > 0:
            strict += 1
    return CrossCheckReport(
        trials=count,
        agreements=agreements,
        disagreements=tuple(disagreements),
        strict_gap_trials=strict,
        gap_total=gap_total,
        gap_max=gap_max,
    )
