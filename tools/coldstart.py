"""Cold-start wall time of the veds command line, one fresh interpreter per run.

Every ``veds solve <file>`` call starts a new interpreter, so it pays for
``import veds`` before any solving.  This script times that cost directly:
each run is one subprocess, either ``python -c "import veds.cli"`` or
``python -m veds.cli solve path_k100.cbg --json`` on a generated P_100.  The
``warm`` mode times the other side, a caller that keeps one interpreter:
its subprocess makes one untimed ``main(["solve", path_k100.cbg, "--json"])``
call, then times 50 more in process with stdout captured, and its sample is
the median of those 50 calls, not the subprocess's wall time.  With
several ``--src`` roots (say a checkout of the parent commit and one of the
change), the roots alternate run by run, so drift on a shared host falls on
all of them alike.  Each root and mode gets one untimed warm-up run first.

Each run's ``PYTHONPATH`` is its root alone, and a root whose ``import veds``
loads a package from elsewhere is refused.  The rest of the environment is
passed through unchanged, ``PYTHONDONTWRITEBYTECODE`` included: with it set
every run compiles veds from source, without it runs read the bytecode
cache.  The setting is recorded with the results, and so is whether a
root's ``veds/__pycache__`` existed before the first run: Python reads a
cache it finds even when told not to write one.

    python tools/coldstart.py --src ../parent/src --src src --runs 15

writes ``BENCH_coldstart.json``: per root and mode the median and quartiles
in milliseconds and the samples, with the Python version, the platform and
each root's git revision; roots are named relative to the working
directory.  Stdlib only; exits non-zero when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MODES = ("import", "solve", "warm")
PATH_K = 100
WARM_CALLS = 50
WARM = f"""\
import contextlib, io, statistics, sys, time
from veds.cli import main
argv = ["solve", sys.argv[1], "--json"]
samples = []
for _ in range({WARM_CALLS} + 1):
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        code = main(argv)
        samples.append((time.perf_counter() - started) * 1000.0)
    if code != 0:
        sys.exit(code)
print(statistics.median(samples[1:]))
"""


def path_graph_text(k: int) -> str:
    """P_k as x1 y1 x2 y2 ..., with its identity Y ordering declared."""
    n1, n2 = (k + 1) // 2, k // 2
    edges = [f"edge {i} {i}" for i in range(1, n2 + 1)]
    edges += [f"edge {j + 1} {j}" for j in range(1, min(n1 - 1, n2) + 1)]
    yorder = " ".join(str(j) for j in range(1, n2 + 1))
    return "\n".join([f"graph {n1} {n2}", *edges, f"yorder {yorder}"]) + "\n"


def revision(src: Path) -> dict:
    """The git commit of the checkout holding ``src``, and whether its files
    differ from that commit; None for both outside a git checkout."""
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(src), *args],
                                  capture_output=True, text=True, timeout=60)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", ".") if commit else None
    return {"revision": commit, "dirty": None if status is None else bool(status)}


def command(mode: str, graph_file: Path) -> list[str]:
    if mode == "import":
        return [sys.executable, "-c", "import veds.cli"]
    if mode == "warm":
        return [sys.executable, "-c", WARM, str(graph_file)]
    return [sys.executable, "-m", "veds.cli", "solve", str(graph_file), "--json"]


def run_once(argv: list[str], src: Path) -> tuple[float, str]:
    """Wall milliseconds and stdout of one subprocess whose PYTHONPATH is
    ``src`` alone."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    started = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    elapsed = (time.perf_counter() - started) * 1000.0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} with PYTHONPATH={src} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return elapsed, done.stdout


def check_source(src: Path) -> None:
    """Fail unless ``import veds`` under ``src`` loads the package inside it."""
    _, found = run_once([sys.executable, "-c", "import veds; print(veds.__file__)"], src)
    if not Path(found.strip()).resolve().is_relative_to(src):
        raise SystemExit(f"veds under PYTHONPATH={src} loads {found.strip()}, not a file in it")


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": round(median, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3),
            "samples_ms": [round(s, 3) for s in samples]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", type=Path,
                    help="a src root holding the veds package; repeat to alternate roots "
                         "(default: this checkout's src)")
    ap.add_argument("--runs", type=int, default=15, help="timed runs per root and mode")
    ap.add_argument("--out", type=Path, default=Path("BENCH_coldstart.json"))
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")
    roots = [src.resolve() for src in (args.src or [REPO / "src"])]
    cached = {src: (src / "veds" / "__pycache__").is_dir() for src in roots}

    with tempfile.TemporaryDirectory() as tmp:
        graph_file = Path(tmp) / f"path_k{PATH_K}.cbg"
        graph_file.write_text(path_graph_text(PATH_K), encoding="utf-8")
        samples: dict[tuple[Path, str], list[float]] = {(r, m): [] for r in roots for m in MODES}
        for src in roots:
            check_source(src)
            for mode in MODES:
                run_once(command(mode, graph_file), src)
        for _ in range(args.runs):
            for src in roots:
                for mode in MODES:
                    elapsed, out = run_once(command(mode, graph_file), src)
                    samples[src, mode].append(float(out) if mode == "warm" else elapsed)

    rows = []
    for src in roots:
        origin = revision(src)
        for mode in MODES:
            rows.append({"src": os.path.relpath(src), **origin, "pycache_before": cached[src],
                         "mode": mode, **summary(samples[src, mode])})
    report = {
        "harness": "tools/coldstart.py",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "runs": args.runs,
        "commands": {m: " ".join(command(m, Path(f"path_k{PATH_K}.cbg"))[1:]) for m in MODES},
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for row in rows:
        print(f"{row['mode']:>6}  {row['median_ms']:8.2f} ms  "
              f"[{row['q1_ms']:.2f}, {row['q3_ms']:.2f}]  {row['src']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
