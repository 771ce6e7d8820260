"""Per-layer wall time of veds as instances double in size.

Five families, each Y-relabelled by a permutation drawn from ``SEED`` so
the ordering layer does real work: the paths P_2n and the short-interval
chains of ``perfbench/workloads.py``, random short intervals (n1 = n2, mean
interval length about 4, not required to be connected, so they fall into
several pieces), the dense graphs of acceptance criterion 6 (n1 = n2,
density 0.1) and the tiled graphs T_k of ``tools/hostile.py``, which blew up
the old state-splitting solver and stay as a scaling family.
Each family doubles its size from a small start until the layer medians of
one case together run past ``--budget`` seconds or the family reaches its
largest size: n1 = 102400 for paths, chains and short intervals (n = 2e5,
3e5 and 2e5), n1 = n2 = 2000 for dense (m ~ 4e5), k = 64 tiles for T_k
(n = 4288).

Every case times each layer ``REPEATS`` times, in process, with the
garbage collector on and a full collection before each run:
``parse_graph_text`` on the ``format_graph_text`` output (the bulk
reader), the line loop alone on the same text, the ordering, the bulk
reader's ordered read of the same text (graph and ordering in one pass, as
``io.load_ordered`` reads a file), ``solve_exact``, ``decompose``,
``verify_decomposition_lemma`` and the baseline; ``decompose`` and the
lemma check take connected graphs only and read null on the others.  A
row keeps each layer's median in ``ms`` and its least and greatest run in
``spread_ms``, with n, m, gamma_ve and the solver's state count, and each
family gets a least-squares log-log slope per layer of the medians against
n + m over its three largest sizes (null with fewer than two).

    python tools/scaling.py --budget 10 --out BENCH_scaling.json

writes the rows and slopes with the Python version, the platform and the
git revision of ``src`` with its dirty flag.  Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

from coldstart import revision
from hostile import tiled_graph

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import veds  # noqa: E402
from veds.chains import _one_run  # noqa: E402
from veds.io import _read_canonical, _read_lines  # noqa: E402
from workloads import chain_graph, path_graph, relabel_y  # noqa: E402

SEED = 1
REPEATS = 3  # timed runs per layer and case
LAYERS = ("parse_bulk", "parse_lines", "ordering", "read_ordered", "solve_exact",
          "decompose", "lemma", "baseline")


def short_graph(n1: int, rng: random.Random) -> veds.BipartiteGraph:
    return veds.gen_random_convex_bipartite(veds.GeneratorConfig(
        n1, n1, 4 / n1, rng.getrandbits(48), require_connected=False))


def dense_graph(n1: int, rng: random.Random) -> veds.BipartiteGraph:
    return veds.gen_random_convex_bipartite(veds.GeneratorConfig(
        n1, n1, 0.1, rng.getrandbits(48), require_connected=True))


# family -> (builder of the graph of size s, first s, largest s); s is n1,
# but the tile count k for T_k
FAMILIES = {
    "path": (lambda n1, rng: path_graph(2 * n1), 100, 102400),
    "chain": (chain_graph, 100, 102400),
    "short": (short_graph, 100, 102400),
    "dense": (dense_graph, 125, 2000),
    "tiles": (lambda k, rng: tiled_graph(k), 1, 64),
}


def timed(ms: dict, spread: dict, layer: str, call, *args):
    """Run ``call(*args)`` REPEATS times; record the median and the range of
    its wall times in ms and return the last run's value."""
    runs = []
    for _ in range(REPEATS):
        gc.collect()  # so that no run pays for the garbage of the one before
        started = time.perf_counter()
        value = call(*args)
        runs.append((time.perf_counter() - started) * 1000.0)
    ms[layer] = round(statistics.median(runs), 3)
    spread[layer] = [round(min(runs), 3), round(max(runs), 3)]
    return value


def case(g: veds.BipartiteGraph, yorder: tuple[int, ...]) -> dict:
    """Time every layer on one instance."""
    text = veds.format_graph_text(g, yorder)
    if _read_canonical(text) is None:
        raise SystemExit("format_graph_text output missed the bulk reader")
    ms: dict[str, float | None] = {}
    spread: dict[str, list[float] | None] = {}
    parsed = timed(ms, spread, "parse_bulk", veds.parse_graph_text, text)
    if timed(ms, spread, "parse_lines", _read_lines, text) != parsed:
        raise SystemExit("the bulk reader and the line loop disagree")
    ordering = timed(ms, spread, "ordering", veds.compute_lex_convex_ordering, g, yorder)
    if timed(ms, spread, "read_ordered", _read_canonical, text, True) != (g, yorder, ordering):
        raise SystemExit("the ordered read and the ordering disagree")
    del text
    result = timed(ms, spread, "solve_exact", veds.solve_exact, g, ordering)
    if _one_run(ordering.intervals, g.n1, g.n2):  # decompose's connectivity rule
        decomp = timed(ms, spread, "decompose", veds.decompose, g, ordering)
        timed(ms, spread, "lemma", veds.verify_decomposition_lemma, g, decomp)
    else:  # the decomposition lemma is about one connected graph
        ms["decompose"] = ms["lemma"] = spread["decompose"] = spread["lemma"] = None
    timed(ms, spread, "baseline", veds.solve_baseline, g, ordering)
    return {"n1": g.n1, "n2": g.n2, "n": g.n, "m": g.m, "gamma_ve": result.gamma_ve,
            "states": result.stats.states, "ms": ms, "spread_ms": spread}


def slope(rows: list[dict], layer: str) -> float | None:
    """Least-squares slope of log ms against log(n + m) over the last three rows
    (null where the layer did not run)."""
    points = [(math.log(r["n"] + r["m"]), math.log(r["ms"][layer]))
              for r in rows[-3:] if r["ms"][layer]]
    if len(points) < 2:
        return None
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return round(sum((x - mx) * (y - my) for x, y in points) / sxx, 3) if sxx else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--budget", type=float, default=10.0,
                    help="stop a family after the first case whose layer medians sum to more (s)")
    ap.add_argument("--out", type=Path, default=Path("BENCH_scaling.json"))
    args = ap.parse_args(argv)

    families = {}
    for name, (build, size, largest) in FAMILIES.items():
        rng = random.Random(f"{name}:{SEED}")
        rows: list[dict] = []
        while size <= largest:
            g, yorder = relabel_y(build(size, rng), rng)
            rows.append(case(g, yorder))
            del g, yorder
            row = rows[-1]
            ran = {k: v for k, v in row["ms"].items() if v is not None}
            print(f"{name:>5} n={row['n']:>7} m={row['m']:>7}  "
                  + "  ".join(f"{k} {v:.1f}" for k, v in ran.items()), flush=True)
            if sum(ran.values()) > args.budget * 1000.0:
                break
            size *= 2
        families[name] = {"rows": rows, "slopes": {layer: slope(rows, layer) for layer in LAYERS}}

    report = {
        "harness": "tools/scaling.py",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        **revision(REPO / "src"),
        "gc": "enabled",
        "repeats": REPEATS,
        "budget_s": args.budget,
        "seed": SEED,
        "layers": list(LAYERS),
        "slope_against": "n + m, the three largest sizes, median ms",
        "families": families,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
