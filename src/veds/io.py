"""Line-oriented text formats for graphs and set systems.

Graph format (UTF-8, '#' starts a comment):

    graph <n1> <n2>
    edge <i> <j>
    yorder <j1> <j2> ... <jn2>     # optional declared convex ordering of Y

Set-system format:

    universe <p>
    set <j>: <e1> <e2> ...

Canonical output is sorted and round-trips bit-exactly.

``parse_graph_text`` reads the lines once.  Each distinct index token goes
through ``int()`` once, and each edge is range-checked as it is read.  The
adjacency then costs one sort per X vertex and one sweep that fills the Y
side, so a file of L lines and m edges reads in O(L + n1 + n2 + m log d),
where d is the largest X degree.
"""

from __future__ import annotations

from pathlib import Path

from .errors import InputError
from .graph import BipartiteGraph, _from_rows
from .reductions import SetSystem

__all__ = [
    "parse_graph_text",
    "format_graph_text",
    "load_graph",
    "parse_set_system_text",
    "format_set_system_text",
    "load_set_system",
]


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _ints(parts: list[str], lineno: int) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise InputError(f"line {lineno}: expected integers, got {' '.join(parts)!r}")


def parse_graph_text(text: str) -> tuple[BipartiteGraph, tuple[int, ...] | None]:
    """Parse the graph format; returns the graph and the declared yorder, if any."""
    header: tuple[int, int] | None = None
    rows: list[list[int]] = []  # rows[i - 1] collects the j of every 'edge i j'
    known: dict[str, int] = {}  # index token -> int(token), filled on first sight
    yorder: tuple[int, ...] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        keyword = parts[0]
        if keyword == "edge":
            if header is None:
                raise InputError(f"line {lineno}: 'edge' before 'graph' header")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected 'edge <i> <j>'")
            try:
                i = known[parts[1]]
                j = known[parts[2]]
            except KeyError:
                i, j = _ints(parts[1:], lineno)
                known[parts[1]] = i
                known[parts[2]] = j
            if not (1 <= i <= header[0] and 1 <= j <= header[1]):
                raise InputError(f"line {lineno}: edge ({i}, {j}) out of range")
            rows[i - 1].append(j)
        elif keyword == "graph":
            if header is not None:
                raise InputError(f"line {lineno}: duplicate graph header")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected 'graph <n1> <n2>'")
            n1, n2 = _ints(parts[1:], lineno)
            if n1 < 0 or n2 < 0:
                raise InputError(f"line {lineno}: side sizes must be nonnegative")
            header = (n1, n2)
            rows = [[] for _ in range(n1)]
        elif keyword == "yorder":
            if header is None:
                raise InputError(f"line {lineno}: 'yorder' before 'graph' header")
            if yorder is not None:
                raise InputError(f"line {lineno}: duplicate yorder")
            values = _ints(parts[1:], lineno)
            if sorted(values) != list(range(1, header[1] + 1)):
                raise InputError(
                    f"line {lineno}: yorder must be a permutation of 1..{header[1]}"
                )
            yorder = tuple(values)
        else:
            raise InputError(f"line {lineno}: unknown directive {keyword!r}")
    if header is None:
        raise InputError("missing 'graph <n1> <n2>' header")
    return _from_rows(header[1], rows), yorder


def format_graph_text(g: BipartiteGraph, yorder: tuple[int, ...] | None = None) -> str:
    lines = [f"graph {g.n1} {g.n2}"]
    for i, nb in enumerate(g.adj_x, start=1):
        head = f"edge {i} "
        lines += [head + str(j) for j in nb]
    if yorder is not None:
        lines.append("yorder " + " ".join(str(j) for j in yorder))
    return "\n".join(lines) + "\n"


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_graph(path: str | Path) -> tuple[BipartiteGraph, tuple[int, ...] | None]:
    return parse_graph_text(_read_text(path))


def parse_set_system_text(text: str) -> SetSystem:
    universe: int | None = None
    sets: list[frozenset[int]] = []
    for lineno, line in _meaningful_lines(text):
        parts = line.split()
        keyword = parts[0]
        if keyword == "universe":
            if universe is not None:
                raise InputError(f"line {lineno}: duplicate universe line")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 'universe <p>'")
            universe = _ints(parts[1:], lineno)[0]
        elif keyword == "set":
            if universe is None:
                raise InputError(f"line {lineno}: 'set' before 'universe'")
            rest = line[len("set"):].strip()
            if ":" not in rest:
                raise InputError(f"line {lineno}: expected 'set <j>: <elements>'")
            label, elems = rest.split(":", 1)
            idx = _ints([label.strip()], lineno)[0]
            if idx != len(sets) + 1:
                raise InputError(
                    f"line {lineno}: set indices must be consecutive from 1 (expected "
                    f"{len(sets) + 1}, got {idx})"
                )
            members = _ints(elems.split(), lineno)
            if not members:
                raise InputError(f"line {lineno}: set {idx} is empty")
            for e in members:
                if universe is not None and not 1 <= e <= universe:
                    raise InputError(f"line {lineno}: element {e} out of range")
            sets.append(frozenset(members))
        else:
            raise InputError(f"line {lineno}: unknown directive {keyword!r}")
    if universe is None:
        raise InputError("missing 'universe <p>' line")
    if not sets:
        raise InputError("set system declares no sets")
    return SetSystem(universe=universe, sets=tuple(sets))


def format_set_system_text(ss: SetSystem) -> str:
    lines = [f"universe {ss.universe}"]
    for j, s in enumerate(ss.sets, start=1):
        lines.append(f"set {j}: " + " ".join(str(e) for e in sorted(s)))
    return "\n".join(lines) + "\n"


def load_set_system(path: str | Path) -> SetSystem:
    return parse_set_system_text(_read_text(path))
