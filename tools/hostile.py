"""The tiled graphs T_k: inputs that blew up the old state-splitting exact
solver, kept as a scaling family for the one-sweep solver.

``S`` is 64 Y intervals on positions 1..64, found by a hill-climb on the
state count of a solver that split states into runs; x_i has the interval
S[i - 1] under the identity Y ordering.  T_k is S plus k tiles, tile
t = 0 .. k - 1 with top = 64 + 32t: every interval [a, b] of S with
17 <= a and b <= 48, shifted by top - 16, and the joining interval
[top, top + 1].  So n2 = 64 + 32k.  Most of their states have runs that
many other states reach too: a solver that solves a run again for every
state reaching it takes 3.3 million states on T_1.  Stdlib only.
"""

from __future__ import annotations

import sys
from pathlib import Path

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
