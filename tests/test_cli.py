import argparse
import ast
import contextlib
import io
import json
import os
import random
import re
import subprocess
import time
import sys
from pathlib import Path

import pytest

import veds
import veds.oracle
from veds import counterexample_graph, format_graph_text
from veds.cli import _plain_commands, _read_plain, build_parser, main

COUNTEREXAMPLE = format_graph_text(counterexample_graph(), (1, 2, 3))

SCP = "universe 3\nset 1: 1 2\nset 2: 2 3\nset 3: 3\n"

# Two components, the second with a nested split.
SPLIT = (
    "graph 8 8\nedge 1 4\nedge 2 1\nedge 3 7\nedge 4 2\nedge 4 7\nedge 5 2\n"
    "edge 5 5\nedge 5 6\nedge 6 4\nedge 7 1\nedge 7 3\nedge 7 4\nedge 7 5\n"
    "edge 7 6\nedge 8 8\nyorder 8 7 2 5 6 4 1 3\n"
)


@pytest.fixture
def cbg(tmp_path):
    path = tmp_path / "counterexample.cbg"
    path.write_text(COUNTEREXAMPLE)
    return str(path)


@pytest.fixture
def scp(tmp_path):
    path = tmp_path / "cover.scp"
    path.write_text(SCP)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_exact_emit_set(cbg, capsys):
    code, out, _ = run(capsys, "solve", cbg, "--algorithm", "exact", "--emit-set")
    assert code == 0
    assert "gamma_ve = 1" in out
    assert "witness = {y2}" in out


def test_solve_baseline_and_bruteforce(cbg, capsys):
    code, out, _ = run(capsys, "solve", cbg, "--algorithm", "baseline")
    assert code == 0 and "gamma_ve = 2" in out
    code, out, _ = run(capsys, "solve", cbg, "--algorithm", "bruteforce")
    assert code == 0 and "gamma_ve = 1" in out


def test_solve_json_schema(cbg, capsys):
    code, out, _ = run(capsys, "solve", cbg, "--json", "--trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_ve"] == 1
    assert payload["witness"] == ["y2"]
    assert payload["algorithm"] == "exact"
    assert payload["elapsed_ms"] >= 0
    assert isinstance(payload["trace"], list)


def test_text_and_json_traces_list_the_same_steps_in_order(tmp_path, capsys):
    # Two components, the second with a nested split: the steps come in the
    # order the sweep creates the states (in increasing start, across the
    # components), and the text lines and the JSON list agree.
    path = tmp_path / "split.cbg"
    path.write_text(SPLIT)
    code, text, _ = run(capsys, "solve", str(path), "--trace")
    assert code == 0
    assert text.splitlines() == [
        "gamma_ve = 3",
        "trace: at (x8, y8) took x_pivot choosing x8",
        "trace: at (x3, y7) took x_pivot choosing x4",
        "trace: at (x5, y2) took x_pivot choosing x5",
        "trace: at (x5, y5) took x_pivot choosing x7",
        "trace: at (x1, y4) took x_pivot choosing x7",
        "trace: at (x1, y4) took x_pivot choosing x6",
        "trace: at (x2, y1) took x_pivot choosing x2",
    ]
    code, out, _ = run(capsys, "solve", str(path), "--json", "--trace")
    assert code == 0
    assert text.splitlines()[1:] == [
        f"trace: at ({s['subproblem'][0]}, {s['subproblem'][1]}) took {s['branch']}"
        + (f" choosing {s['chosen']}" if s["chosen"] else "")
        for s in json.loads(out)["trace"]
    ]


def _masked(out):
    """``out`` with the one run-dependent value, ``elapsed_ms``, set to 0."""
    return re.sub(r'"elapsed_ms": [^,}]+', '"elapsed_ms": 0', out)


def test_json_trace_bytes_are_pinned(cbg, tmp_path, capsys):
    # Each step is TraceStep's fields in order, its subproblem pair a list.
    path = tmp_path / "split.cbg"
    path.write_text(SPLIT)
    code, out, err = run(capsys, "solve", cbg, "--json", "--trace")
    assert (code, err) == (0, "")
    assert _masked(out) == (
        '{"gamma_ve": 1, "witness": ["y2"], "algorithm": "exact", "elapsed_ms": 0, '
        '"stats": {"states": 2, "requests": 3, "x_pivot": 1, "y_blanket": 1}, "trace": ['
        '{"subproblem": ["x1", "y1"], "branch": "y_blanket", "chosen": "y2"}, '
        '{"subproblem": ["x3", "y3"], "branch": "x_pivot", "chosen": "x3"}]}\n'
    )
    code, out, err = run(capsys, "solve", str(path), "--json", "--trace")
    assert (code, err) == (0, "")
    assert _masked(out) == (
        '{"gamma_ve": 3, "witness": ["x4", "x7", "x8"], "algorithm": "exact", "elapsed_ms": 0, '
        '"stats": {"states": 7, "requests": 12, "x_pivot": 7, "y_blanket": 0}, "trace": ['
        '{"subproblem": ["x8", "y8"], "branch": "x_pivot", "chosen": "x8"}, '
        '{"subproblem": ["x3", "y7"], "branch": "x_pivot", "chosen": "x4"}, '
        '{"subproblem": ["x5", "y2"], "branch": "x_pivot", "chosen": "x5"}, '
        '{"subproblem": ["x5", "y5"], "branch": "x_pivot", "chosen": "x7"}, '
        '{"subproblem": ["x1", "y4"], "branch": "x_pivot", "chosen": "x7"}, '
        '{"subproblem": ["x1", "y4"], "branch": "x_pivot", "chosen": "x6"}, '
        '{"subproblem": ["x2", "y1"], "branch": "x_pivot", "chosen": "x2"}]}\n'
    )


def test_solve_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "nosuchfile.cbg")
    assert code == 2
    assert "error:" in err


def test_solve_undecodable_graph_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cbg"
    path.write_bytes(b"graph 1 1\nedge 1 1\n\xff\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2 and "cannot read" in err


def test_reduce_undecodable_set_system_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.scp"
    path.write_bytes(SCP.encode() + b"\xff\n")
    code, _, err = run(capsys, "reduce", str(path), "--target", "star")
    assert code == 2 and "cannot read" in err


def test_solve_without_yorder_uses_search(tmp_path, capsys):
    path = tmp_path / "g.cbg"
    path.write_text("graph 1 1\nedge 1 1\n")
    code, out, _ = run(capsys, "solve", str(path), "--emit-set")
    assert code == 0 and "witness = {x1}" in out


def test_solve_nonconvex_without_yorder_is_input_error(tmp_path, capsys):
    hexagon = "graph 3 3\n" + "".join(
        f"edge {i} {j}\n" for i, j in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1)]
    )
    path = tmp_path / "hex.cbg"
    path.write_text(hexagon)
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "not convex" in err


def test_solve_rejects_a_large_nonconvex_file_without_yorder_quickly(tmp_path):
    # A six-cycle on y1..y3 plus x4 ~ {y4..y10}: the ordering search meets
    # the six-cycle only after placing the seven-vertex block, and trying
    # all 10! permutations of Y would take minutes.
    edges = "".join(
        f"edge {i} {j}\n"
        for i, j in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1)] + [(4, j) for j in range(4, 11)]
    )
    path = tmp_path / "nonconvex.cbg"
    path.write_text("graph 4 10\n" + edges)
    done = fresh_process(["solve", str(path)], timeout=10)
    assert done.returncode == 2
    assert "not convex" in done.stderr


def test_verify_valid_and_invalid(cbg, capsys):
    code, out, _ = run(capsys, "verify", cbg, "--set", "y2")
    assert code == 0 and out.strip() == "VALID"
    code, out, _ = run(capsys, "verify", cbg, "--set", "x1, x2")
    assert code == 1 and out.startswith("INVALID")


def test_verify_counts_every_undominated_edge(cbg, capsys):
    # {y1} dominates only x1's two edges; x2y2, x3y2 and x3y3 stay open.
    code, out, _ = run(capsys, "verify", cbg, "--set", "y1")
    assert code == 1
    assert out == "INVALID: edge x2 y2 is not dominated (3 of 5 edges undominated)\n"
    code, out, _ = run(capsys, "verify", cbg, "--set", "y1", "--json")
    assert code == 1
    assert json.loads(out) == {"valid": False, "undominated_count": 3,
                               "undominated_edge": ["x2", "y2"]}
    code, out, _ = run(capsys, "verify", cbg, "--set", "y2", "--json")
    assert code == 0 and json.loads(out) == {"valid": True, "undominated_count": 0}


def test_verify_names_the_least_out_of_range_vertex_under_every_hash_seed(tmp_path):
    # --set is a frozenset of string-hashed refs, so its iteration order
    # changes with PYTHONHASHSEED; the message must not.
    path = tmp_path / "empty.cbg"
    path.write_text("graph 0 0\n")
    outcomes = set()
    for seed in range(1, 7):
        done = fresh_process(["verify", str(path), "--set", "x1,y2"], PYTHONHASHSEED=str(seed))
        outcomes.add((done.returncode, done.stderr))
    assert outcomes == {(2, "error: vertex x1 out of range (n1=0)\n")}


def test_verify_bad_name_exits_2(cbg, capsys):
    code, _, err = run(capsys, "verify", cbg, "--set", "q7")
    assert code == 2
    code, _, err = run(capsys, "verify", cbg, "--set", "y9")
    assert code == 2
    code, _, err = run(capsys, "verify", cbg, "--set", "x²")
    assert code == 2 and "invalid vertex name" in err
    code, out, err = run(capsys, "verify", cbg, "--set", ",")
    assert (code, out, err) == (2, "", "error: --set needs at least one vertex name\n")


def test_order_text_and_json(cbg, capsys):
    code, out, _ = run(capsys, "order", cbg)
    assert code == 0
    assert "xperm: x1 x2 x3" in out
    assert "yperm: y1 y2 y3" in out
    code, out, _ = run(capsys, "order", cbg, "--json")
    payload = json.loads(out)
    assert payload["xperm"] == [1, 2, 3]
    assert payload["left_x"] == [1, 2, 2]


def test_decompose_output(cbg, capsys):
    code, out, _ = run(capsys, "decompose", cbg)
    assert code == 0
    assert "chain 1: X = {x1}  Y = {y1, y2}" in out
    assert "isolated after chain 1: {x2}" in out
    assert "lemma verification: all clauses passed" in out
    code, out, _ = run(capsys, "decompose", cbg, "--json")
    payload = json.loads(out)
    assert payload["chains"] == [{"x": [1], "y": [1, 2]}, {"x": [3], "y": [3]}]
    assert payload["lemma_passed"] is True


def test_decompose_single_vertex_is_the_tail(tmp_path, capsys):
    path = tmp_path / "one.cbg"
    path.write_text("graph 1 0\n")
    code, out, err = run(capsys, "decompose", str(path))
    assert (code, err) == (0, "")
    assert out == "tail (flagged): {x1}\nlemma verification: all clauses passed\n"


def test_order_text_tables(cbg, capsys):
    code, out, err = run(capsys, "order", cbg)
    assert (code, err) == (0, "")
    assert out == (
        "xperm: x1 x2 x3\n"
        "yperm: y1 y2 y3\n"
        " pos      x  left  right\n"
        "   1     x1     1      2\n"
        "   2     x2     2      2\n"
        "   3     x3     2      3\n"
        " pos      y  left  right\n"
        "   1     y1     1      1\n"
        "   2     y2     1      3\n"
        "   3     y3     3      3\n"
    )


def test_solve_trace_text(cbg, capsys):
    assert run(capsys, "solve", cbg, "--trace") == (0, (
        "gamma_ve = 1\n"
        "trace: at (x1, y1) took y_blanket choosing y2\n"
        "trace: at (x3, y3) took x_pivot choosing x3\n"
    ), "")


def test_decompose_refuses_two_pieces(tmp_path, capsys):
    # y3 lies between the pieces and x2 is isolated.
    path = tmp_path / "gap.cbg"
    path.write_text("graph 3 4\nedge 1 1\nedge 1 2\nedge 3 4\n")
    assert run(capsys, "decompose", str(path)) == (
        1, "", "error: decompose requires a connected graph; split components first\n"
    )


def test_oracle_setcover_with_an_uncovered_element(tmp_path, capsys):
    path = tmp_path / "coverless.scp"
    path.write_text("universe 3\nset 1: 1\nset 2: 2\n")
    assert run(capsys, "oracle", "setcover", str(path)) == (0, "cover = none\n", "")


def test_edgeless_graph_has_the_empty_witness(tmp_path, capsys):
    path = tmp_path / "edgeless.cbg"
    path.write_text("graph 2 2\n")
    expected = (0, "gamma_ve = 0\nwitness = {}\n", "")
    assert run(capsys, "solve", str(path), "--algorithm", "bruteforce", "--emit-set") == expected
    assert run(capsys, "oracle", "ve", str(path)) == expected


def test_verify_counts_the_one_undominated_edge(cbg, capsys):
    assert run(capsys, "verify", cbg, "--set", "x1") == (
        1, "INVALID: edge x3 y3 is not dominated (1 of 5 edges undominated)\n", ""
    )


def test_reduce_writes_files(scp, tmp_path, capsys):
    out_path = tmp_path / "reduced.cbg"
    code, out, _ = run(
        capsys, "reduce", scp, "--target", "star", "--out", str(out_path), "--certify"
    )
    assert code == 0
    assert out_path.exists()
    cert = (tmp_path / "reduced.cbg.cert").read_text()
    assert cert == "tree star center=u\n"
    assert "a1 = x1" in out
    # The emitted graph is a valid instance for the brute-force oracle.
    code, out, _ = run(capsys, "oracle", "ve", str(out_path))
    assert code == 0 and "gamma_ve = 3" in out


def test_reduce_unwritable_out_exits_2(scp, tmp_path, capsys):
    # A missing directory, and a directory where the file should go.
    for out_path in (tmp_path / "missing" / "x.cbg", tmp_path):
        code, _, err = run(capsys, "reduce", scp, "--target", "star", "--out", str(out_path))
        assert code == 2 and f"cannot write {out_path}" in err
    # The graph file is writable but its certificate's path is a directory.
    (tmp_path / "g.cbg.cert").mkdir()
    out_path = tmp_path / "g.cbg"
    code, _, err = run(
        capsys, "reduce", scp, "--target", "star", "--out", str(out_path), "--certify"
    )
    assert code == 2 and f"cannot write {out_path}.cert" in err


def test_reduce_comb_to_stdout(scp, capsys):
    code, out, err = run(capsys, "reduce", scp, "--target", "comb", "--certify")
    assert code == 0
    assert out.startswith("graph 8 7\n")
    assert "tree comb backbone=r1,r2,r3,r4 teeth=a1:r1,a2:r2,a3:r3,r'4:r4" in out
    assert "w = y7" in err


def test_oracle_setcover(scp, capsys):
    code, out, _ = run(capsys, "oracle", "setcover", scp)
    assert code == 0 and "cover size = 2" in out


def test_oracle_capacity_exit_3(tmp_path, capsys):
    path = tmp_path / "big.cbg"
    path.write_text("graph 12 12\nedge 1 1\n")
    code, _, err = run(capsys, "oracle", "ve", str(path))
    assert code == 3


def test_gen_is_deterministic_and_loadable(capsys, tmp_path):
    code, out1, _ = run(capsys, "gen", "convex", "--n1", "4", "--n2", "4",
                        "--density", "0.5", "--seed", "42")
    code2, out2, _ = run(capsys, "gen", "convex", "--n1", "4", "--n2", "4",
                         "--density", "0.5", "--seed", "42")
    assert code == code2 == 0 and out1 == out2
    assert "yorder 1 2 3 4" in out1
    path = tmp_path / "gen.cbg"
    path.write_text(out1)
    code, out, _ = run(capsys, "solve", str(path), "--json")
    assert code == 0 and json.loads(out)["gamma_ve"] >= 0


class _NoDrawRandom(random.Random):
    def random(self, *args):
        raise AssertionError("the generator drew")

    getrandbits = random


def test_gen_refuses_unconnectable_request_at_once(capsys, monkeypatch):
    # Every interval has length 1 at this density, so no draw can connect
    # the two Y vertices; a million X vertices cost nothing.  A draw fails
    # the test at once rather than after 500 draws of a million intervals.
    monkeypatch.setattr(veds.oracle.random, "Random", _NoDrawRandom)
    code, out, err = run(capsys, "gen", "convex", "--n1", "1000000", "--n2", "2",
                         "--density", "0.25", "--seed", "1", "--connected")
    assert (code, out) == (1, "")
    assert err == (
        "error: no connected instance after 500 draws "
        "(n1=1000000, n2=2, density=0.25); try a higher density\n"
    )


def test_gen_refuses_an_oversized_request_at_once():
    # Ten million X vertices, or a trillion expected edges: either would
    # draw for minutes and write a file that solve refuses.
    for n1, n2 in (("10000000", "1"), ("1000000", "1000000")):
        done = fresh_process(
            ["gen", "convex", "--n1", n1, "--n2", n2, "--density", "1", "--seed", "1"], timeout=10
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            "error: the generator is capped at 10000000 vertices and 10000000 expected "
            f"edges (n1={n1}, n2={n2}, density=1.0)\n"
        )


def test_solve_takes_a_split_heavy_tiled_graph_in_a_fresh_process(tmp_path, monkeypatch):
    # T_2 of tools/hostile.py: a solver that solves a piece again for every
    # split reaching it does not finish this file in 270 s.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    from hostile import tiled_graph

    g = tiled_graph(2)
    path = tmp_path / "tiles2.cbg"
    path.write_text(format_graph_text(g, tuple(range(1, g.n2 + 1))))
    done = fresh_process(["solve", str(path)], timeout=20)
    assert (done.returncode, done.stdout, done.stderr) == (0, "gamma_ve = 41\n", "")


def test_text_and_json_report_identical_values(cbg, capsys):
    _, text_out, _ = run(capsys, "solve", cbg, "--algorithm", "baseline")
    _, json_out, _ = run(capsys, "solve", cbg, "--algorithm", "baseline", "--json")
    assert f"gamma_ve = {json.loads(json_out)['gamma_ve']}" in text_out


def test_bench_json(capsys):
    code, out, _ = run(capsys, "bench", "--trials", "5", "--max-n", "10", "--seed", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 5 and payload["agreements"] == 5


def test_bench_rejects_size_cap_below_two(capsys):
    for trials, cap, why in (
        ("3", "1", "size cap"),
        ("3", "0", "size cap"),
        ("-2", "5", "trial count"),
    ):
        code, _, err = run(capsys, "bench", "--trials", trials, "--max-n", cap, "--seed", "0")
        assert code == 2 and why in err


def test_bench_refuses_a_size_cap_above_brute_force_at_once(capsys):
    # Brute force's time grows about 15x per doubling of the size cap, so
    # a cap above its own must be refused before any trial.
    for cap in ("23", "2000"):
        started = time.perf_counter()
        code, out, err = run(capsys, "bench", "--trials", "8", "--max-n", cap, "--seed", "3")
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (3, "")
        assert err == f"error: size cap must be at most 22 vertices, brute force's cap (got {cap})\n"
    code, out, err = run(capsys, "bench", "--trials", "8", "--max-n", "22", "--seed", "3")
    assert (code, err) == (0, "") and out.startswith("trials: 8\nagreements: 8\n")
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (max_n,) = [a for a in sub.choices["bench"]._actions if a.dest == "max_n"]
    assert max_n.help.endswith(f"at most {veds.oracle.BRUTE_FORCE_VERTEX_LIMIT}")


def test_argparse_rejects_unknown_flags(cbg):
    with pytest.raises(SystemExit) as exc:
        main(["solve", cbg, "--frobnicate"])
    assert exc.value.code == 2


def fresh_process(argv, timeout=120, **env):
    """``main(argv)`` run in a new interpreter with ``env`` added to the
    environment."""
    src = str(Path(veds.__file__).resolve().parent.parent)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        **env,
    }
    script = "import sys\nfrom veds.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    return subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_repeated_main_calls_leak_nothing_between_calls(cbg, scp, tmp_path, capsys, monkeypatch):
    # Callers such as the benchmark make many main() calls in one process,
    # all through one parser.  A rejected call that had already set
    # --algorithm and --emit-set, help, a missing required option, nested
    # subcommand defaults and options given in one call and left out of the
    # next must each leave every later call exactly as a new interpreter
    # runs it.  COLUMNS pins the help width on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    reduced = str(tmp_path / "reduced.cbg")
    gen = ["gen", "convex", "--n1", "5", "--n2", "4", "--density", "0.3", "--seed", "7"]
    calls = [
        ["solve", cbg, "--algorithm", "baseline", "--emit-set", "--bogus"],
        ["solve", cbg, "--algorithm", "baseline"],
        ["solve", cbg],
        ["decompose", cbg, "--json"],
        ["--help"],
        ["verify", cbg],
        ["verify", cbg, "--set", "y1"],
        ["oracle", "ve", cbg],
        ["oracle", "setcover", scp],
        ["reduce", scp, "--target", "star", "--out", reduced],
        ["reduce", scp, "--target", "star"],
        gen + ["--connected"],
        gen,
    ]
    seen = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
    assert [code for code, _, _ in seen] == [2, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0]
    assert seen[2][1] == "gamma_ve = 1\n"
    assert seen[4][1].startswith("usage: veds") and "the following arguments" in seen[5][2]
    assert seen[-2][1] != seen[-1][1]
    fresh = [fresh_process(argv, COLUMNS="80") for argv in calls]
    assert seen == [(done.returncode, done.stdout, done.stderr) for done in fresh]


def test_main_builds_its_parser_once_per_process(cbg, capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr("veds.cli.build_parser", counting_build_parser)
    monkeypatch.setattr("veds.cli._parser", None)
    for argv in (["solve", cbg], ["decompose", cbg], ["solve", cbg, "--json"]) * 3:
        assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == 1
    # build_parser stays public and still returns a new parser every call.
    assert build_parser() is not build_parser()


def test_importing_the_cli_builds_no_parser():
    script = """\
import argparse
built = []
class Counted(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        built.append(self)
        super().__init__(*args, **kwargs)
argparse.ArgumentParser = Counted
import veds.cli
print(len(built), veds.cli._parser)
"""
    src = str(Path(veds.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 None\n"


# The CLI contract the plain read is checked against: each leaf command, its
# number of positionals and its option strings, each with values to draw
# (None for a flag).  The values include bad choices and bad numbers.
INTS = ["0", "3", "12", "-2", "1.5", "x", "", " 7", "1_0", "\u0663", "1e3"]
FLOATS = ["0.3", "1", "-0.5", "nan", "1e-1", "x", "", " .5", "inf"]
LEAVES = {
    ("solve",): (1, {
        "--algorithm": ["exact", "baseline", "bruteforce", "fast", "EXACT", ""],
        "--emit-set": None, "--trace": None, "--json": None,
    }),
    ("verify",): (1, {"--set": ["x1,y2", "y1", "", "x1 y2", "-x1"], "--json": None}),
    ("order",): (1, {"--json": None}),
    ("decompose",): (1, {"--json": None}),
    ("reduce",): (1, {
        "--target": ["star", "comb", "tree", ""], "--out": ["out.cbg", "", "a b"], "--certify": None,
    }),
    ("oracle", "ve"): (1, {"--json": None}),
    ("oracle", "setcover"): (1, {"--json": None}),
    ("gen", "convex"): (0, {
        "--n1": INTS, "--n2": INTS, "--density": FLOATS, "--seed": INTS, "--connected": None,
    }),
    ("bench",): (0, {"--trials": INTS, "--max-n": INTS, "--seed": INTS, "--json": None}),
}
WORDS = sorted({w for words in LEAVES for w in words} | {"bogus"})
OPTION_STRINGS = sorted({o for _, opts in LEAVES.values() for o in opts} | {"-h", "--help"})
NOISE = ["--", "-", "-h", "--help", "-2", "-0.5", "", " ", "a b", "--frobnicate", "-x", "g.cbg"]


def test_plain_table_has_every_leaf_command_and_option():
    table = _plain_commands(build_parser())
    assert set(table) == set(LEAVES)
    for words, (depth, _, positionals, options, _) in table.items():
        assert depth == len(words)
        assert len(positionals) == LEAVES[words][0]
        assert set(options) == set(LEAVES[words][1])


def _noise(rng):
    opt = rng.choice(OPTION_STRINGS)
    pick = rng.randrange(5)
    if pick == 0 and len(opt) > 3:
        return opt[:rng.randrange(3, len(opt))]  # an abbreviation
    if pick == 1:
        return f"{opt}={rng.choice(INTS + ['star', 'baseline'])}"
    if pick == 2:
        return rng.choice(WORDS)
    if pick == 3:
        return opt
    return rng.choice(NOISE)


def _draw_argv(rng):
    words = rng.choice(list(LEAVES))
    positionals, options = LEAVES[words]
    groups = [[f"g{k}.cbg"] for k in range(positionals)]
    for opt, values in options.items():
        for _ in range(rng.choice((0, 1, 1, 1, 1, 2))):
            groups.append([opt] if values is None else [opt, rng.choice(values)])
    rng.shuffle(groups)
    argv = list(words) + [t for group in groups for t in group]
    for _ in range(rng.choice((0, 0, 0, 1, 2, 3))):
        k = rng.randrange(len(argv) + 1)
        pick = rng.randrange(3)
        if pick == 0 or k == len(argv):
            argv.insert(k, _noise(rng))
        elif pick == 1:
            argv[k] = _noise(rng)
        else:
            del argv[k]
    return argv


def _fields(ns):
    # repr tells 5 from 5.0 and lets nan equal nan.
    return sorted((k, repr(v)) for k, v in vars(ns).items())


def test_plain_read_is_parse_args_or_nothing():
    # 20,000 argv drawn from every command word and option string, plus
    # abbreviations, '=' forms, '--', help, negative numbers, bad choices,
    # bad numbers, and empty and spaced tokens.  The plain read returns
    # None or exactly the namespace a fresh parser returns; where the parser
    # exits (help or a usage error) it must return None.
    table = _plain_commands(build_parser())
    parser = build_parser()
    rng = random.Random(27)
    plain = fallback = 0
    sink = io.StringIO()
    for _ in range(20000):
        argv = _draw_argv(rng)
        got = _read_plain(argv, table)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                want = parser.parse_args(argv)
        except SystemExit:
            want = None
        sink.seek(0)
        sink.truncate()
        if got is None:
            fallback += 1
            continue
        plain += 1
        assert want is not None and _fields(got) == _fields(want), argv
    # Both paths carry real weight in the draw.
    assert plain > 4000 and fallback > 4000, (plain, fallback)


def _benchmark_argv_forms():
    """Every argv literal in perfbench/workloads.py that starts with a veds
    command word, read from its source; each ``str(...)`` element reads as
    "2" and "{f}" stays the file placeholder."""
    source = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    commands = {words[0] for words in LEAVES}
    forms = []
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.List, ast.Tuple)) or not node.elts:
            continue
        argv = []
        for e in node.elts:
            if isinstance(e, ast.Constant) and isinstance(e.value, str):
                argv.append(e.value)
            elif isinstance(e, ast.Call) and getattr(e.func, "id", None) == "str":
                argv.append("2")
            else:
                break
        else:
            if argv[0] in commands:
                forms.append(argv)
    return forms


def test_every_benchmark_argv_form_skips_parse_args(cbg, scp, capsys, monkeypatch):
    # The benchmark's requests are all plain, so none may reach argparse:
    # were the plain read to go dead, this fails before any timing does.
    forms = _benchmark_argv_forms()
    assert len(forms) >= 8
    assert {argv[0] for argv in forms} == {"solve", "decompose", "oracle", "reduce", "bench"}
    reached = []
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, args=None, namespace=None: reached.append(args))
    for argv in forms:
        sets = argv[0] == "reduce" or argv[:2] == ["oracle", "setcover"]
        argv = [(scp if sets else cbg) if a == "{f}" else a for a in argv]
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert reached == []
