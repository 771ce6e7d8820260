"""Seeded inputs and request lists for the veds benchmark workloads.

Every input comes from one ``random.Random(seed)`` stream, so a seed fixes the
files, the request list and the expected answers.  Inputs are built and
written only through the package's public builder, generator and writer
functions (``veds.build_graph``, ``veds.gen_random_convex_bipartite``,
``veds.format_graph_text``, ``veds.format_set_system_text``); the calls go
through the ``veds`` package attributes so the traced run sees them.

Every convex graph gets a random Y relabelling and the matching ``yorder``
line, so the ordering layer does real work and a position/index mix-up
fails the witness checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import veds

WORKLOADS = ("dense_shallow", "sparse_deep", "many_small")

# dense_shallow: (n1 = n2, density) per graph.  Intervals average about 30 Y
# vertices, so m runs from about 4.5e3 to 8.7e3 and m / (n1 + n2) is 15:
# edge-bound, yet each request takes only tens of milliseconds (see README).
DENSE_SIZES = tuple((n, 30 / n) for n in range(150, 291, 20))
# sparse_deep: path lengths (the two largest give the log-log slope) and chains.
PATH_LENGTHS = (100, 140, 180)
# Two chains faster than the shortest path and two slower than the longest,
# so the median solve is P_140 and solve_ms_p50 does not hinge on chain shape.
DEEP_CHAIN_N1 = (30, 30, 110, 110)
# The chain shapes come from this fixed stream, not from the seed: the solve
# time of an n1 = 110 chain swings by about 19% (coefficient of variation)
# between draws, which would make solve_s follow the seed.  The seed still
# draws each chain's Y relabelling, so the files differ between seeds.
DEEP_CHAIN_SHAPES = "sparse_deep:chain-shapes"
# many_small: instance counts and the cross-check run.
SMALL_GEN = 50
SMALL_CHAINS = 50
SMALL_SET_SYSTEMS = 40
SMALL_MAX_VERTICES = 22
BENCH_TRIALS = 100
BENCH_MAX_N = 14

CONVEX_COMMANDS = (
    ("solve", ["solve", "{f}", "--json"]),
    ("baseline", ["solve", "{f}", "--algorithm", "baseline", "--json"]),
    ("decompose", ["decompose", "{f}", "--json"]),
)
ORACLE_COMMAND = ("oracle_ve", ["oracle", "ve", "{f}", "--json"])
SET_COMMANDS = (
    ("reduce_star", ["reduce", "{f}", "--target", "star", "--certify"]),
    ("reduce_comb", ["reduce", "{f}", "--target", "comb", "--certify"]),
    ("oracle_setcover", ["oracle", "setcover", "{f}", "--json"]),
)


@dataclass
class Instance:
    """One generated input file and what is known about it independently."""

    name: str
    family: str  # "dense", "path", "chain", "gen", "setsys"
    path: Path
    graph: veds.BipartiteGraph | None = None
    yorder: tuple[int, ...] | None = None
    system: veds.SetSystem | None = None
    path_k: int | None = None  # P_k: gamma_ve is floor((k + 2) / 4)


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    instance: str | None  # None for the bench cross-check


@dataclass
class Workload:
    name: str
    seed: int
    instances: dict[str, Instance] = field(default_factory=dict)
    requests: list[Request] = field(default_factory=list)


def relabel_y(g: veds.BipartiteGraph, rng: random.Random):
    """Rename Y by a random permutation; return the graph and its yorder.

    ``g`` must be convex under the identity ordering.  Position p of the
    returned ordering holds the new label of old vertex y_p, so the declared
    yorder is convex and differs from the identity.
    """
    sigma = list(range(1, g.n2 + 1))
    rng.shuffle(sigma)
    relabelled = veds.build_graph(g.n1, g.n2, [(i, sigma[j - 1]) for i, j in g.edges()])
    return relabelled, tuple(sigma)


def path_graph(k: int) -> veds.BipartiteGraph:
    """The alternating path x1 - y1 - x2 - y2 - ... on k vertices."""
    n1, n2 = (k + 1) // 2, k // 2
    edges = [(i, i - 1) for i in range(2, n1 + 1)]
    edges += [(i, i) for i in range(1, n2 + 1)]
    return veds.build_graph(n1, n2, edges)


def chain_graph(n1: int, rng: random.Random) -> veds.BipartiteGraph:
    """Connected short-interval graph: interval lengths 2..6, each interval
    starting strictly inside the previous one, so consecutive intervals
    overlap and the recursion walks the whole Y side.

    Lengths are drawn as shuffled blocks of 2..6 rather than independently,
    which keeps the solve time of equal-size chains within a few percent.
    """
    intervals = []
    lengths: list[int] = []
    left = 1
    for _ in range(n1):
        if not lengths:
            lengths = [2, 3, 4, 5, 6]
            rng.shuffle(lengths)
        length = lengths.pop()
        intervals.append((left, left + length - 1))
        left = rng.randint(left + 1, left + length - 1)
    n2 = max(r for _, r in intervals)
    edges = [(i, j) for i, (l, r) in enumerate(intervals, start=1) for j in range(l, r + 1)]
    return veds.build_graph(n1, n2, edges)


def small_gen_graph(rng: random.Random) -> veds.BipartiteGraph:
    """A connected criterion-6 instance with n1 + n2 <= SMALL_MAX_VERTICES."""
    while True:
        n1 = rng.randint(2, 10)
        n2 = rng.randint(2, SMALL_MAX_VERTICES - n1)
        cfg = veds.GeneratorConfig(
            n1=n1, n2=n2, density=rng.uniform(0.3, 0.9),
            seed=rng.getrandbits(48), require_connected=True,
        )
        try:
            return veds.gen_random_convex_bipartite(cfg)
        except veds.GenerationError:
            continue


def small_chain_graph(rng: random.Random) -> veds.BipartiteGraph:
    while True:
        g = chain_graph(rng.randint(3, 7), rng)
        if g.n <= SMALL_MAX_VERTICES:
            return g


def set_system(rng: random.Random) -> veds.SetSystem:
    """p <= 6 elements, 2 <= q <= p sets of size >= 2, every element covered
    (the reduction's min cover + 1 identity needs a cover)."""
    p = rng.randint(3, 6)
    q = rng.randint(2, p)
    sets = [set(rng.sample(range(1, p + 1), rng.randint(2, p))) for _ in range(q)]
    for e in range(1, p + 1):
        if not any(e in s for s in sets):
            sets[rng.randrange(q)].add(e)
    return veds.SetSystem(universe=p, sets=tuple(frozenset(s) for s in sets))


def _add_graph(w: Workload, directory: Path, name: str, family: str, g, rng, **extra) -> None:
    relabelled, yorder = relabel_y(g, rng)
    path = directory / f"{name}.cbg"
    path.write_text(veds.format_graph_text(relabelled, yorder), encoding="utf-8")
    w.instances[name] = Instance(name, family, path, graph=relabelled, yorder=yorder, **extra)


def _add_set_system(w: Workload, directory: Path, name: str, ss) -> None:
    path = directory / f"{name}.scp"
    path.write_text(veds.format_set_system_text(ss), encoding="utf-8")
    w.instances[name] = Instance(name, "setsys", path, system=ss)


def _requests_for(inst: Instance, commands) -> list[Request]:
    return [
        Request(kind, tuple(str(inst.path) if a == "{f}" else a for a in argv), inst.name)
        for kind, argv in commands
    ]


def build(name: str, seed: int, directory: Path, variant: int = 0) -> Workload:
    """Generate and write one workload's inputs and return its request list.

    Variant 0 is the workload of this seed.  Other variants draw fresh inputs
    of the same shapes; they serve only as extra set-up time samples, so that
    setup_s is a median over several generator draws.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}" + (f":{variant}" if variant else ""))
    directory.mkdir(parents=True, exist_ok=True)
    w = Workload(name, seed)
    if name == "dense_shallow":
        for k, (n, density) in enumerate(DENSE_SIZES, start=1):
            g = veds.gen_random_convex_bipartite(veds.GeneratorConfig(
                n1=n, n2=n, density=density, seed=rng.getrandbits(48), require_connected=True,
            ))
            _add_graph(w, directory, f"dense{k}_n{n}", "dense", g, rng)
        for inst in list(w.instances.values()):
            w.requests += _requests_for(inst, CONVEX_COMMANDS)
    elif name == "sparse_deep":
        for k in PATH_LENGTHS:
            _add_graph(w, directory, f"path_k{k}", "path", path_graph(k), rng, path_k=k)
        shapes = random.Random(DEEP_CHAIN_SHAPES)
        for c, n1 in enumerate(DEEP_CHAIN_N1, start=1):
            _add_graph(w, directory, f"chain{c}_n{n1}", "chain", chain_graph(n1, shapes), rng)
        for inst in list(w.instances.values()):
            w.requests += _requests_for(inst, CONVEX_COMMANDS)
    else:
        for c in range(1, SMALL_GEN + 1):
            _add_graph(w, directory, f"gen{c}", "gen", small_gen_graph(rng), rng)
        for c in range(1, SMALL_CHAINS + 1):
            _add_graph(w, directory, f"chain{c}", "chain", small_chain_graph(rng), rng)
        for c in range(1, SMALL_SET_SYSTEMS + 1):
            _add_set_system(w, directory, f"sets{c}", set_system(rng))
        for inst in list(w.instances.values()):
            commands = SET_COMMANDS if inst.family == "setsys" else CONVEX_COMMANDS + (ORACLE_COMMAND,)
            w.requests += _requests_for(inst, commands)
        w.requests.append(Request("bench", (
            "bench", "--trials", str(BENCH_TRIALS), "--max-n", str(BENCH_MAX_N),
            "--seed", str(rng.randrange(10**9)), "--json",
        ), None))
    return w
