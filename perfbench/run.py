"""veds benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload dense_shallow|sparse_deep|many_small \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src``.
Each worker is a fresh interpreter started one at a time, so solve_exact's
process-wide recursion-limit change and the RSS high-water mark stay inside
one workload, and load never comes from more than one process.

--trace 0   six set-up-only workers and one measuring worker (which also sets
            up); prints the end-to-end metrics of BENCHMARK.json.
--trace 1   a traced, an untraced and a second traced worker on the same
            seed, each for a third of --seconds; prints the per-layer metrics
            and the tracing overhead, and fails unless the two traced runs
            repeat every count and gamma exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0
SETUP_REPEATS = 7  # set-up samples per --trace 0 run; setup_s is their median
TAIL_MIN_BEYOND = 10

sys.path.insert(0, str(HERE))

from calibration import REFERENCE_S  # noqa: E402


class BenchError(Exception):
    pass


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def start_worker(args, mode: str, label: str, deadline: float,
                 seconds: float, variant: int = 0) -> dict:
    """Run one worker to completion and return its result file."""
    directory = WORK / f"{args.workload}-{label}"
    out = WORK / f"{args.workload}-{label}.json"
    shutil.rmtree(directory, ignore_errors=True)
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
        "--dir", str(directory), "--out", str(out), "--variant", str(variant),
    ]
    if mode == "trace":
        cmd += ["--spans", str(WORK / f"spans-{args.workload}-{label}.json")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for worker {label}")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {label} did not finish within {timeout:.0f} s")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(
            f"worker {label} exited with code {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    if not Path(result["veds_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported veds from {result['veds_file']}, not from src/")
    return result


def calibrated(seconds: float, kernel_s: float) -> float:
    """A time in seconds of a machine on which the calibration kernel takes
    REFERENCE_S (see calibration.py)."""
    return seconds / kernel_s * REFERENCE_S


def request_samples(result: dict, kinds: tuple[str, ...]) -> list[list[float]]:
    """Calibrated time of every repeat, per distinct request of the given kinds."""
    return [
        [calibrated(t, k) for t, k in zip(r["times"], r["kernel_times"])]
        for r in result["requests"] if r["kind"] in kinds and r["times"]
    ]


def request_cost(result: dict, kinds: tuple[str, ...]) -> list[float]:
    """Median calibrated time of each distinct request of the given kinds.

    The host's speed changes by up to 40% for seconds at a time; dividing
    each repeat by the kernel time around it takes that out, and the median
    over the run's repeats takes out what is left of single slow slices.
    """
    return [statistics.median(samples) for samples in request_samples(result, kinds)]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest of the standard percentiles with at least TAIL_MIN_BEYOND
    samples beyond it, by nearest rank: (percentile, value, n)."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (50.0, statistics.median(ordered) if ordered else 0.0)
    for p in (50.0, 90.0, 95.0, 99.0, 99.9):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (p, ordered[rank - 1])
    return best[0], best[1], n


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """The BENCHMARK.json end-to-end metrics plus the extra report lines."""
    def total(*kinds):
        return sum(request_cost(result, kinds))

    kinds = {r["kind"] for r in result["requests"]}
    solve_samples = [t for samples in request_samples(result, ("solve",)) for t in samples]
    metrics = {
        "solve_s": (total("solve"), "s"),
        "solve_ms_p50": (1000.0 * statistics.median(request_cost(result, ("solve",))), "ms"),
        "baseline_s": (total("baseline"), "s"),
        "decompose_s": (total("decompose"), "s"),
        "requests_per_s": (len(result["requests"]) / total(*kinds), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    extra = {}
    if "oracle_ve" in kinds:  # the workload of many small requests
        p, value, n = tail(solve_samples)
        extra["solve_ms_tail"] = (1000.0 * value, f"ms (p{p:g} of n={n})")
        extra["oracle_s"] = (total("oracle_ve", "oracle_setcover"), "s")
        extra["reduce_s"] = (total("reduce_star", "reduce_comb"), "s")
        extra["bench_s"] = (total("bench"), "s")
    extra["failed_ratio"] = (result["failed"] / result["attempted"], "ratio")
    lines = [f"  {k} = {v:.6g} {u}" for k, (v, u) in {**metrics, **extra}.items()]
    kernel = [k for r in result["requests"] for k in r["kernel_times"]]
    lines.append(f"  calibration kernel: median {1000.0 * statistics.median(kernel):.4g} ms over "
                 f"{len(kernel)} runs; times above are scaled to {1000.0 * REFERENCE_S:g} ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def pass_wall(result: dict) -> float:
    return sum(request_cost(result, tuple({r["kind"] for r in result["requests"]})))


def traced(untraced: dict, runs: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from two traced runs, after the determinism check."""
    a, b = runs
    if a["counts"] != b["counts"]:
        diff = {k: (a["counts"].get(k), b["counts"].get(k))
                for k in set(a["counts"]) | set(b["counts"]) if a["counts"].get(k) != b["counts"].get(k)}
        raise BenchError(f"determinism check: counts differ between traced runs: {diff}")
    for run in runs:
        if run["gammas"] != untraced["gammas"]:
            raise BenchError("determinism check: gamma values differ between runs")
    metrics = {}
    for key in a["layers"]:
        metrics[key] = (a["layers"][key] + b["layers"][key]) / 2.0
    metrics.update(a["counts"])
    traced_wall = (pass_wall(a) + pass_wall(b)) / 2.0
    plain_wall = pass_wall(untraced)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    lines = [f"  determinism: {len(a['counts'])} counts and {len(a['gammas'])} gamma values repeat exactly"]
    lines.append(f"  tracing overhead: {traced_wall:.4f} s traced vs {plain_wall:.4f} s untraced per pass")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="veds benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "veds" / "__init__.py").is_file():
        print(f"error: no veds package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(names)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    attempted = failed = 0
    failures: list[str] = []
    try:
        if args.trace == 0:
            setups = [start_worker(args, "setup", f"setup{k}", deadline, 0, variant=k)
                      for k in range(1, SETUP_REPEATS)]
            result = start_worker(args, "run", "run", deadline, args.seconds)
            setups = [calibrated(r["setup_s"], r["setup_kernel_s"]) for r in setups + [result]]
            runs = [result]
            values, lines = end_to_end(result, setups)
            wanted = [m["name"] for m in bench["end_to_end"]]
        else:
            # The three workers share --seconds, so a traced run takes about
            # as long as an untraced one.  The untraced worker runs between
            # the traced ones, so a steady drift in machine speed cancels
            # out of the overhead.
            third = args.seconds / 3.0
            first = start_worker(args, "trace", "trace1", deadline, third)
            untraced = start_worker(args, "run", "run", deadline, third)
            second = start_worker(args, "trace", "trace2", deadline, third)
            runs = [untraced, first, second]
            raw, lines = traced(untraced, [first, second])
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            values = {k: {"value": raw[k], "unit": units[k]} for k in units}
            lines += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in values.items()]
            wanted = list(units)
        for run in runs:
            attempted += run["attempted"]
            failed += run["failed"]
            failures += run["failures"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {k: values[k] for k in wanted}
    correct = failed == 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} requests, {failed} failed, "
          f"{runs[0]['pinned_checked']} pinned gamma values checked")
    for line in failures:
        print(f"  FAILED {line}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
