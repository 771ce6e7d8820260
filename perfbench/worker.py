"""One workload in a fresh interpreter: set up, run the closed loop, check
every output, and write a JSON result file.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace --dir WORKDIR --out RESULT.json [--spans SPANS.json]

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``.  ``setup`` only times the set-up; ``run`` adds the untraced closed
loop; ``trace`` installs the span recorder first and runs whole passes only,
so per-pass counts can be compared across runs.

One client sends each request only after the previous one returned.  A
request is one in-process call of ``veds.cli.main(argv)`` with stdout and
stderr captured; the loop repeats the workload's request list until the
time is up, after at least one full pass.  The calibration kernel of
``calibration.py`` runs right after every request; each request records the
mean of the kernel times before and after it, and set-up records the kernel
median before and after it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import calibration

ANCHORS = Path(__file__).with_name("anchors.json")
REQUEST_KINDS_WITH_ORDERING = ("solve", "baseline", "decompose")
FRONT_LAYERS = ("io.parse", "graph.build", "ordering.lex", "ordering.validate", "ordering.ensure")


def execute(argv) -> tuple[int | None, str, str, str | None, float]:
    """Call the CLI once; return (exit code, stdout, stderr, error, seconds)."""
    import veds.cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = veds.cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # RecursionError included
        rc, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    return rc, out.getvalue(), err.getvalue(), error, elapsed


# ---------------------------------------------------------------- checks


def min_cover_size(universe: int, sets) -> int | None:
    """Smallest number of sets covering 1..universe, by plain enumeration."""
    full = set(range(1, universe + 1))
    for size in range(1, len(sets) + 1):
        for combo in itertools.combinations(sets, size):
            if set().union(*combo) == full:
                return size
    return None


class Checker:
    """Checks each output against an anchor that does not come from the
    exact solver: the definition-level verifier, brute force, the P_k
    formula, the baseline's upper bound, or a pinned regression value."""

    def __init__(self, workload, pinned: dict[str, int]):
        import veds

        self.veds = veds
        self.w = workload
        self.pinned = pinned
        self.facts: dict[str, dict[str, int]] = defaultdict(dict)
        self.first: dict[int, str] = {}

    def check(self, index: int, req, rc, stdout: str, stderr: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-300:]}"
        normal = self._normal(req.kind, stdout)
        if self.first.get(index) == normal:
            return None
        problem = self._check_fresh(req, stdout, stderr)
        if problem is None:
            self.first.setdefault(index, normal)
        return problem

    @staticmethod
    def _normal(kind: str, stdout: str) -> str:
        if kind in ("solve", "baseline"):
            payload = json.loads(stdout)
            payload.pop("elapsed_ms", None)
            return json.dumps(payload, sort_keys=True)
        return stdout

    def _witness(self, g, payload) -> str | None:
        names = payload["witness"]
        refs = {self.veds.parse_vertex_name(n) for n in names}
        if len(refs) != len(names) or len(refs) != payload["gamma_ve"]:
            return f"|witness| = {len(refs)} but gamma_ve = {payload['gamma_ve']}"
        bad = self.veds.first_undominated_edge(g, refs)
        if bad is not None:
            return f"witness leaves edge x{bad[0]} y{bad[1]} undominated"
        return None

    def _check_fresh(self, req, stdout: str, stderr: str) -> str | None:
        kind = req.kind
        inst = self.w.instances.get(req.instance) if req.instance else None
        if kind in ("solve", "baseline", "oracle_ve"):
            payload = json.loads(stdout)
            problem = self._witness(inst.graph, payload)
            if problem:
                return problem
            gamma = payload["gamma_ve"]
            facts = self.facts[inst.name]
            facts[kind] = gamma
            if kind == "solve":
                if inst.path_k is not None and gamma != (inst.path_k + 2) // 4:
                    return f"P_{inst.path_k}: gamma_ve {gamma} != floor((k+2)/4)"
                pin = self.pinned.get(inst.name)
                if pin is not None and gamma != pin:
                    return f"gamma_ve {gamma} differs from the pinned regression value {pin}"
            if "solve" in facts and "baseline" in facts and facts["solve"] > facts["baseline"]:
                return f"exact gamma {facts['solve']} > baseline gamma {facts['baseline']}"
            if "solve" in facts and "oracle_ve" in facts and facts["solve"] != facts["oracle_ve"]:
                return f"exact gamma {facts['solve']} != brute force {facts['oracle_ve']}"
            return None
        if kind == "decompose":
            payload = json.loads(stdout)
            if payload["lemma_passed"] is not True:
                return "decomposition lemma checks failed"
            if payload["tail_isolated"]:
                return "connected input left a flagged tail"
            return None
        if kind in ("reduce_star", "reduce_comb"):
            return self._check_reduction(inst, kind[len("reduce_"):], stdout, stderr)
        if kind == "oracle_setcover":
            cover = json.loads(stdout)["cover"]
            ss = inst.system
            if cover is None or not ss.is_cover(cover):
                return f"reported cover {cover} does not cover the universe"
            if len(cover) != min_cover_size(ss.universe, ss.sets):
                return f"cover size {len(cover)} is not minimum"
            return None
        if kind == "bench":
            report = json.loads(stdout)
            if report["disagreements"] or report["agreements"] != report["trials"]:
                return f"cross-check disagreed on {len(report['disagreements'])} trials"
            return None
        return f"no check for request kind {kind!r}"

    def _check_reduction(self, inst, kind: str, stdout: str, stderr: str) -> str | None:
        veds = self.veds
        lines = stdout.splitlines()
        cert_line = lines[-1]
        g, _ = veds.parse_graph_text("\n".join(lines[:-1]) + "\n")
        roles = {}
        for line in stderr.splitlines():
            name, _, ref = line.partition(" = ")
            if ref:
                roles[name] = veds.parse_vertex_name(ref).index
        fields = dict(part.split("=", 1) for part in cert_line.split()[2:])
        if cert_line.split()[:2] != ["tree", kind]:
            return f"certificate line {cert_line!r} is not a {kind} tree"
        if kind == "star":
            centre = roles[fields["center"]]
            edges = tuple((centre, t) for t in range(1, g.n1 + 1) if t != centre)
        else:
            backbone = [roles[r] for r in fields["backbone"].split(",")]
            teeth = [tuple(roles[v] for v in pair.split(":")) for pair in fields["teeth"].split(",")]
            edges = tuple(zip(backbone, backbone[1:])) + tuple((r, t) for t, r in teeth)
        cert = veds.TreeCertificate(kind=kind, edges=edges)
        if not veds.verify_tree_convexity(g, cert).ok:
            return f"{kind} certificate rejected by verify_tree_convexity"
        want = min_cover_size(inst.system.universe, inst.system.sets) + 1
        got = veds.brute_force_gamma_ve(g, max_vertices=g.n).gamma_ve
        if got != want:
            return f"reduced graph has gamma_ve {got}, expected min cover + 1 = {want}"
        return None


# ---------------------------------------------------------------- loop


def run_loop(w, checker: Checker, seconds: float, whole_passes: bool, tracer=None) -> dict:
    """Closed loop over the request list; returns samples and failures."""
    times: list[list[float]] = [[] for _ in w.requests]
    kernel_times: list[list[float]] = [[] for _ in w.requests]
    executions: list[tuple[int, int]] = []  # (pass, request index) by sequence number
    failures: list[str] = []
    failed = 0
    started = time.perf_counter()
    full_passes = 0
    before = calibration.kernel_seconds()
    for pass_no in itertools.count():
        for index, req in enumerate(w.requests):
            if full_passes and not whole_passes and time.perf_counter() - started >= seconds:
                break
            if tracer is not None:
                tracer.request = len(executions)
            rc, out, err, error, elapsed = execute(req.argv)
            if tracer is not None:
                tracer.request = None
            after = calibration.kernel_seconds()
            executions.append((pass_no, index))
            times[index].append(elapsed)
            kernel_times[index].append((before + after) / 2.0)
            before = after
            try:
                problem = error or checker.check(index, req, rc, out, err)
            except Exception as exc:  # malformed output is a failed check
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{req.kind} {req.instance or ''}: {problem}")
        else:
            full_passes += 1
            if time.perf_counter() - started < seconds:
                continue
        break
    return {
        "times": times, "kernel_times": kernel_times, "executions": executions, "full_passes": full_passes,
        "failed": failed, "failures": failures,
    }


# ---------------------------------------------------------------- traced metrics


def _slope(points: list[tuple[int, float]]) -> float:
    """Log-log slope between the two largest sizes; 0 without two sizes."""
    pts = sorted(points)[-2:]
    if len(pts) < 2 or pts[0][0] == pts[1][0] or min(p[1] for p in pts) <= 0:
        return 0.0
    (n1, t1), (n2, t2) = pts
    return math.log(t2 / t1) / math.log(n2 / n1)


def layer_metrics(tracer, w, loop: dict) -> tuple[dict, dict]:
    """Per-pass layer self times and per-pass counts from the recorded spans.

    Returns (times, counts): times averaged over full passes, counts of the
    first pass after checking that every full pass repeats them exactly.
    """
    selfs = tracer.self_times()
    full = loop["full_passes"]
    executions = loop["executions"]
    per_pass_self = [Counter() for _ in range(full)]
    per_pass_counts = [Counter() for _ in range(full)]
    exact_self: dict[str, list[float]] = defaultdict(list)
    setup_self = Counter()
    gen_draws = Counter()  # over the set-up and the first pass
    for span, own in zip(tracer.spans, selfs):
        parent = tracer.spans[span.parent] if span.parent is not None else None
        if span.request == "setup":
            setup_self[span.layer] += own
            first = True
        else:
            pass_no, index = executions[span.request]
            if pass_no >= full:
                continue
            first = pass_no == 0
            req = w.requests[index]
            c = per_pass_counts[pass_no]
            per_pass_self[pass_no][span.layer] += own
            c[span.layer + ".calls"] += 1
            for key, value in (span.counts or {}).items():
                c[f"{span.layer}.{key}"] += value
            if span.layer == "ordering.validate" and req.kind in REQUEST_KINDS_WITH_ORDERING:
                c["validations_in_ordering_requests"] += 1
            if req.kind == "solve" and span.layer == "solver.exact":
                exact_self[req.instance].append(own)
                per_pass_self[pass_no]["solve.exact"] += own
            if req.kind == "solve" and span.layer in FRONT_LAYERS:
                per_pass_self[pass_no]["solve.front"] += own
        if first:
            gen_draws["instances"] += span.layer == "oracle.gen" and span.ok
            gen_draws["draws"] += (
                span.layer == "graph.build" and parent is not None and parent.layer == "oracle.gen"
            )
    for pass_no, index in executions:
        if pass_no < full:
            per_pass_counts[pass_no]["requests." + w.requests[index].kind] += 1
    for c in per_pass_counts[1:]:
        if c != per_pass_counts[0]:
            raise AssertionError("per-pass counts differ between passes of one run")
    counts = per_pass_counts[0]
    layer = Counter()
    for c in per_pass_self:
        layer.update(c)
    for key in layer:
        layer[key] /= full
    solve_wall = sum(
        sum(loop["times"][i][:full]) for i, r in enumerate(w.requests) if r.kind == "solve"
    ) / full
    ordering_requests = sum(counts["requests." + k] for k in REQUEST_KINDS_WITH_ORDERING)
    slope_points = [
        (w.instances[name].graph.n, statistics.median(ts))
        for name, ts in exact_self.items() if w.instances[name].family == "path"
    ]
    times = {
        "cli.self_s": layer["cli"],
        "io.parse_s": layer["io.parse"],
        "io.edges_per_s": counts["io.parse.edges"] / layer["io.parse"] if layer["io.parse"] else 0.0,
        "io.format_s": layer["io.format"],
        "graph.build_s": layer["graph.build"],
        "graph.verify_s": layer["graph.verify"],
        "graph.components_s": layer["graph.components"],
        "ordering.lex_s": layer["ordering.lex"],
        "ordering.validate_s": layer["ordering.validate"],
        "ordering.ensure_s": layer["ordering.ensure"],
        "solver.exact_s": layer["solver.exact"],
        "solver.baseline_s": layer["solver.baseline"],
        "solver.exact_loglog_slope": _slope(slope_points),
        "solve.front_share": layer["solve.front"] / solve_wall if solve_wall else 0.0,
        "solve.exact_share": layer["solve.exact"] / solve_wall if solve_wall else 0.0,
        "chains.decompose_s": layer["chains.decompose"],
        "chains.lemma_s": layer["chains.lemma"],
        "reductions.reduce_s": layer["reductions.reduce"],
        "oracle.bruteforce_s": layer["oracle.bruteforce"],
        "oracle.cover_s": layer["oracle.cover"],
        "oracle.gen_s": layer["oracle.gen"],
        "oracle.crosscheck_s": layer["oracle.crosscheck"],
        "setup.oracle.gen_s": setup_self["oracle.gen"],
        "setup.graph.build_s": setup_self["graph.build"],
        "setup.io.format_s": setup_self["io.format"],
    }
    count_metrics = {
        "graph.verify_calls": counts["graph.verify.calls"],
        "graph.components_calls": counts["graph.components.calls"],
        "ordering.validations_per_request": (
            counts["validations_in_ordering_requests"] / ordering_requests if ordering_requests else 0.0
        ),
        "solver.trace_steps": counts["solver.exact.trace_steps"],
        "solver.splits": counts["solver.exact.split"],
        "solver.x_pivot": counts["solver.exact.x_pivot"],
        "solver.y_blanket": counts["solver.exact.y_blanket"],
        "solver.universal": counts["solver.exact.universal"],
        "chains.chains": counts["chains.decompose.chains"],
        "oracle.gen_draws_per_instance": (
            gen_draws["draws"] / gen_draws["instances"] if gen_draws["instances"] else 0.0
        ),
        "requests_per_pass": sum(v for k, v in counts.items() if k.startswith("requests.")),
    }
    return times, count_metrics


# ---------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--variant", type=int, default=0)
    args = ap.parse_args(argv)

    kernel_before = calibration.kernel_median()
    started = time.perf_counter()
    import veds
    import veds.cli  # the entry point users run; not imported by the package

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.request = "setup"
    import workloads

    w = workloads.build(args.workload, args.seed, Path(args.dir), args.variant)
    setup_s = time.perf_counter() - started
    kernel_after = calibration.kernel_median()
    result: dict = {
        "setup_s": setup_s, "setup_kernel_s": (kernel_before + kernel_after) / 2.0,
        "veds_file": veds.__file__,
    }
    if tracer is not None:
        tracer.request = None
    if args.mode != "setup":
        pins = json.loads(ANCHORS.read_text(encoding="utf-8")) if ANCHORS.exists() else {}
        pinned = pins.get(args.workload, {}).get(str(args.seed), {})
        checker = Checker(w, pinned)
        loop = run_loop(w, checker, args.seconds, whole_passes=tracer is not None, tracer=tracer)
        result.update({
            "requests": [
                {"kind": r.kind, "instance": r.instance, "times": ts, "kernel_times": ks}
                for r, ts, ks in zip(w.requests, loop["times"], loop["kernel_times"])
            ],
            "full_passes": loop["full_passes"],
            "attempted": len(loop["executions"]),
            "failed": loop["failed"],
            "failures": loop["failures"],
            "gammas": {name: f["solve"] for name, f in sorted(checker.facts.items()) if "solve" in f},
            "pinned_checked": len(pinned),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        if tracer is not None:
            result["layers"], result["counts"] = layer_metrics(tracer, w, loop)
            if args.spans:
                Path(args.spans).write_text(
                    json.dumps([s.to_json() for s in tracer.spans]), encoding="utf-8"
                )
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
