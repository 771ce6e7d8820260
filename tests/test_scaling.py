import importlib
import json
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import veds

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
    assert report["repeats"] == 3
    layers = ["parse_bulk", "parse_lines", "ordering", "read_ordered", "solve_exact",
              "decompose", "lemma", "baseline"]
    assert report["layers"] == layers
    assert list(report["families"]) == ["path", "chain", "short", "dense", "tiles"]
    for family in report["families"].values():
        # Every first case takes longer than the budget, so each family stops there.
        [row] = family["rows"]
        assert set(row) == {"n1", "n2", "n", "m", "gamma_ve", "states", "ms", "spread_ms"}
        assert list(row["ms"]) == list(row["spread_ms"]) == layers
        # Each layer's median lies within the least and greatest of its runs.
        for layer in layers:
            ms, spread = row["ms"][layer], row["spread_ms"][layer]
            assert (ms is None) == (spread is None)
            if ms is not None:
                assert 0 <= spread[0] <= ms <= spread[1]
        assert family["slopes"] == dict.fromkeys(layers)
    # Random short intervals: n1 = n2, about 4 edges per X vertex, and
    # several pieces, which decompose and the lemma check do not take.
    [short] = report["families"]["short"]["rows"]
    assert short["n1"] == short["n2"] == 100 and 300 <= short["m"] <= 500
    skipped = [layer for layer, ms in short["ms"].items() if ms is None]
    assert skipped == ["decompose", "lemma"]
    assert [layer for layer, spread in short["spread_ms"].items() if spread is None] == skipped
    for name in ("path", "chain", "dense", "tiles"):
        assert None not in report["families"][name]["rows"][0]["ms"].values()
    # The first tiled graph is T_1, relabelled.
    [tiles] = report["families"]["tiles"]["rows"]
    assert (tiles["n1"], tiles["n2"], tiles["m"], tiles["gamma_ve"]) == (97, 96, 244, 31)


def test_timed_keeps_the_median_and_the_range_of_its_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    scaling = importlib.import_module("scaling")
    clock = iter([0.0, 0.004, 1.0, 1.001, 2.0, 2.009])  # runs of 4, 1 and 9 ms
    monkeypatch.setattr(scaling, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    calls = []
    ms, spread = {}, {}
    assert scaling.timed(ms, spread, "layer", lambda v: calls.append(v) or len(calls), "a") == 3
    assert calls == ["a", "a", "a"]
    assert ms == {"layer": 4.0}
    assert spread == {"layer": [1.0, 9.0]}


def test_short_interval_family_splits_into_pieces(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    scaling = importlib.import_module("scaling")
    build, n1, largest = scaling.FAMILIES["short"]
    assert (n1, largest) == (100, 102400)
    for size in (n1, 8 * n1):
        g = build(size, random.Random(f"short:{scaling.SEED}"))
        assert g.n1 == g.n2 == size and 3 <= g.m / size <= 5
        pieces = [xs for xs, _ in veds.connected_components(g) if xs]
        assert len(pieces) > 1
