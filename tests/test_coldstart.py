import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from veds import compute_lex_convex_ordering, parse_graph_text, solve_exact

TOOL = Path(__file__).resolve().parent.parent / "tools" / "coldstart.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("coldstart", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generated_path_is_p_k():
    # P_k has k - 1 edges and gamma_ve = floor((k + 2) / 4).
    for k in (2, 3, 7, 10, 100):
        g, yorder = parse_graph_text(load_tool().path_graph_text(k))
        assert (g.n, g.m) == (k, k - 1)
        assert solve_exact(g, compute_lex_convex_ordering(g, yorder)).gamma_ve == (k + 2) // 4


def test_coldstart_writes_medians_quartiles_and_provenance(tmp_path):
    out = tmp_path / "BENCH_coldstart.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--runs", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["python"] and "PYTHONDONTWRITEBYTECODE" in report and report["runs"] == 2
    assert [row["mode"] for row in report["rows"]] == ["import", "solve", "warm"]
    for row in report["rows"]:
        assert (tmp_path / row["src"]).resolve() == TOOL.parent.parent / "src"
        assert "revision" in row and "pycache_before" in row
        assert row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
        assert len(row["samples_ms"]) == 2


def test_coldstart_fails_when_a_run_fails(tmp_path):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--runs", "2", "--src", str(tmp_path),
         "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode != 0 and not (tmp_path / "out.json").exists()
