"""Regenerate anchors.json: the exact gamma_ve of the large random instances.

    PYTHONPATH=src python3 perfbench/pin_anchors.py [FIRST_SEED LAST_SEED]

No independent exact oracle reaches these sizes yet, so the pinned values are
a regression anchor only: they record what the solver answered when they
were pinned, and a later answer that differs fails the benchmark's check.
Paths need no pin (gamma_ve(P_k) = floor((k + 2) / 4)) and the small
instances are checked against brute force.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import veds

import workloads

PINNED_FAMILIES = {"dense_shallow": ("dense",), "sparse_deep": ("chain",)}


def main(argv: list[str]) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 40)
    here = Path(__file__).resolve().parent
    scratch = here.parent / ".perfbench" / "pin"
    anchors: dict = {"note": (
        "Regression anchor, not ground truth: gamma_ve of the large random instances "
        "as solved when pinned; no independent exact oracle reaches these sizes."
    )}
    for name, families in PINNED_FAMILIES.items():
        anchors[name] = {}
        for seed in range(first, last + 1):
            w = workloads.build(name, seed, scratch)
            pins = {}
            for inst in w.instances.values():
                if inst.family in families:
                    ordering = veds.compute_lex_convex_ordering(inst.graph, inst.yorder)
                    pins[inst.name] = veds.solve_exact(inst.graph, ordering).gamma_ve
            anchors[name][str(seed)] = pins
            print(name, seed, pins, file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    (here / "anchors.json").write_text(json.dumps(anchors, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
