"""Split-heavy inputs for the exact solver: the tiled graphs T_k and a
seeded hill-climb that searches for more.

``S`` is 64 Y intervals on positions 1..64, found by a hill-climb on the
solver's state count; x_i has the interval S[i - 1] under the identity Y
ordering.  T_k is S plus k tiles, tile t = 0 .. k - 1 with top = 64 + 32t:
every interval [a, b] of S with 17 <= a and b <= 48, shifted by top - 16,
and the joining interval [top, top + 1].  So n2 = 64 + 32k.  Most states
split, into runs that many other splits reach too: a solver that solves a
run again for every split reaching it takes 3.3 million states on T_1.

The climb starts from ``CLIMB_X`` random short intervals on ``CLIMB_Y``
positions, drawn from ``SEED``, and, for ``--steps`` steps, changes one
interval (a fresh draw or one end moved by one) and keeps the change when
``stats.states / (n + m)`` does not drop.  ``--steps`` is its only budget,
so a run is the same on every host.

    python tools/hostile.py --steps 3000 --out BENCH_hostile.json

writes the best ratio, its instance and state count, the ratio of T_0 and
T_1 for comparison, the Python version and the git revision of ``src``.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

from coldstart import revision

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import veds  # noqa: E402

S = (
    (1, 3), (3, 5), (4, 4), (5, 7), (6, 8), (7, 7), (7, 11), (8, 9), (8, 9), (10, 12),
    (12, 14), (13, 13), (14, 15), (15, 18), (15, 21), (16, 16), (17, 17), (17, 18),
    (17, 19), (18, 20), (19, 23), (19, 23), (20, 21), (21, 22), (23, 24), (24, 27),
    (25, 25), (27, 29), (28, 30), (29, 29), (29, 33), (30, 30), (30, 30), (31, 34),
    (34, 37), (36, 36), (37, 38), (38, 40), (39, 39), (40, 42), (41, 43), (42, 45),
    (43, 44), (44, 46), (45, 45), (46, 46), (46, 47), (47, 48), (48, 51), (49, 49),
    (50, 53), (52, 55), (53, 57), (54, 54), (55, 55), (56, 57), (57, 59), (58, 58),
    (59, 60), (60, 63), (61, 61), (62, 63), (63, 64), (64, 64),
)
SEED = 1
CLIMB_X = CLIMB_Y = 64
MAX_LENGTH = 6  # a drawn interval spans 1 to MAX_LENGTH + 1 positions


def interval_graph(intervals, n2: int) -> veds.BipartiteGraph:
    """x_i adjacent to the Y positions of intervals[i - 1]."""
    edges = [(i, j) for i, (a, b) in enumerate(intervals, start=1) for j in range(a, b + 1)]
    return veds.build_graph(len(intervals), n2, edges)


def tiled_intervals(k: int) -> list[tuple[int, int]]:
    intervals = list(S)
    for t in range(k):
        top = 64 + 32 * t
        intervals += [(a + top - 16, b + top - 16) for a, b in S if 17 <= a and b <= 48]
        intervals.append((top, top + 1))
    return intervals


def tiled_graph(k: int) -> veds.BipartiteGraph:
    """T_k, convex under the identity Y ordering."""
    return interval_graph(tiled_intervals(k), 64 + 32 * k)


def ratio(intervals, n2: int) -> tuple[float, int, veds.BipartiteGraph]:
    """(states / (n + m), states, graph) of the exact solve."""
    g = interval_graph(intervals, n2)
    ordering = veds.compute_lex_convex_ordering(g, veds.identity_permutation(n2))
    states = veds.solve_exact(g, ordering).stats.states
    return states / (g.n + g.m), states, g


def climb(seed: int, steps: int) -> dict:
    """Hill-climb ``steps`` single-interval changes from a seeded start."""
    rng = random.Random(seed)

    def draw() -> tuple[int, int]:
        a = rng.randint(1, CLIMB_Y)
        return a, min(CLIMB_Y, a + rng.randint(0, MAX_LENGTH))

    current = [draw() for _ in range(CLIMB_X)]
    best, _, _ = ratio(current, CLIMB_Y)
    for _ in range(steps):
        trial = list(current)
        i = rng.randrange(CLIMB_X)
        a, b = trial[i]
        if rng.random() < 0.5:
            trial[i] = draw()
        elif rng.random() < 0.5:
            trial[i] = (min(b, max(1, a + rng.choice((-1, 1)))), b)
        else:
            trial[i] = (a, max(a, min(CLIMB_Y, b + rng.choice((-1, 1)))))
        value, _, _ = ratio(trial, CLIMB_Y)
        if value >= best:
            current, best = trial, value
    value, states, g = ratio(current, CLIMB_Y)
    return {"seed": seed, "steps": steps, "ratio": round(value, 4), "states": states,
            "n": g.n, "m": g.m, "intervals": [list(iv) for iv in sorted(current)]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", type=int, default=3000)
    ap.add_argument("--out", type=Path, default=Path("BENCH_hostile.json"))
    args = ap.parse_args(argv)

    started = time.perf_counter()
    found = climb(SEED, args.steps)
    elapsed = time.perf_counter() - started
    tiled = {}
    for k in (0, 1):
        value, states, g = ratio(tiled_intervals(k), 64 + 32 * k)
        tiled[f"T_{k}"] = {"ratio": round(value, 4), "states": states, "n": g.n, "m": g.m}
    print(f"seed {SEED}: {found['steps']} steps in {elapsed:.1f} s, "
          f"best states / (n + m) = {found['ratio']} ({found['states']} states)")
    report = {
        "harness": "tools/hostile.py",
        "python": platform.python_version(),
        "platform": platform.platform(),
        **revision(REPO / "src"),
        "objective": "stats.states / (n + m)",
        "elapsed_s": round(elapsed, 2),
        "climb": found,
        "tiled": tiled,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
