import importlib
import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_slope_is_the_log_log_fit_over_the_three_largest_sizes(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    scaling = importlib.import_module("scaling")
    rows = [{"n": n, "m": 0, "ms": {"a": 5.0, "b": 1e-3 * n ** 1.5}} for n in (10, 100, 1000, 4000)]
    rows[0]["ms"]["a"] = 1.0  # outside the three largest sizes
    assert scaling.slope(rows, "a") == 0.0
    assert scaling.slope(rows, "b") == 1.5
    assert scaling.slope(rows[:1], "b") is None


def test_scaling_writes_rows_slopes_and_provenance(tmp_path):
    out = tmp_path / "BENCH_scaling.json"
    done = subprocess.run(
        [sys.executable, str(TOOLS / "scaling.py"), "--budget", "0.001", "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    for key in ("python", "platform", "revision", "dirty", "gc", "budget_s", "layers"):
        assert key in report
    layers = ["parse_bulk", "parse_lines", "ordering", "solve_exact", "decompose", "lemma",
              "baseline"]
    assert report["layers"] == layers
    assert list(report["families"]) == ["path", "chain", "dense"]
    for family in report["families"].values():
        # Every first case takes longer than the budget, so each family stops there.
        [row] = family["rows"]
        assert set(row) == {"n1", "n2", "n", "m", "gamma_ve", "states", "ms"}
        assert list(row["ms"]) == layers and min(row["ms"].values()) >= 0
        assert family["slopes"] == dict.fromkeys(layers)
