"""Line-oriented text formats for graphs and set systems.

Graph format (UTF-8, '#' starts a comment):

    graph <n1> <n2>
    edge <i> <j>
    yorder <j1> <j2> ... <jn2>     # optional declared convex ordering of Y

Set-system format:

    universe <p>
    set <j>: <e1> <e2> ...

Canonical output is sorted and round-trips bit-exactly.

``parse_graph_text`` reads text exactly as ``format_graph_text`` writes it in
bulk: a ``graph <n1> <n2>`` line, then ``edge <i> <j>`` lines with ``i``
non-decreasing, then at most one ``yorder`` line, last; plain ASCII decimals
with no sign and no leading zero, single spaces, ``\n`` line ends and no
comments.  Whole-string operations check that shape over the whole file
before anything is decoded, every line start included, then one
``str.translate`` pass and one ``json.loads`` decode each slice of at most
64 KiB of edge lines.  Every Y index goes through a ``list(range(n2 + 1))``
table, so the graph holds one int object per Y index; the X column is only
checked to be ascending and at most ``n1``.  Any other text, a malformed one
included, goes through the line loop, which reads the lines once and words
every error; only an empty or out-of-range index, or X out of order, is
found after the bulk reader has decoded.  Both run in O(L + n1 + n2 + m)
time for a file of L characters and m edges whose rows come ascending, plus
one sort per X vertex whose row does not; the bulk reader needs
O(64 KiB + n1 + n2 + m) memory besides the text.

A graph header may declare at most ``MAX_DECLARED`` vertices and a set system
a universe of at most that size (``CapacityError``), so a short file cannot
make the readers allocate without bound.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import islice
from pathlib import Path

from .errors import CapacityError, InputError
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

MAX_DECLARED = 10**7
_CHUNK = 1 << 16
_DROP_DIGITS = str.maketrans("", "", "0123456789")
_TO_JSON = str.maketrans(" ", ",", "edg\n")


def _ints(parts: list[str], lineno: int) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise InputError(f"line {lineno}: expected integers, got {' '.join(parts)!r}")


def parse_graph_text(text: str) -> tuple[BipartiteGraph, tuple[int, ...] | None]:
    """Parse the graph format; returns the graph and the declared yorder, if any."""
    return _read_canonical(text) or _read_lines(text)


def _decimals(line: str, keyword: str) -> list[int] | None:
    """The integers after ``keyword`` when ``line`` is exactly ``keyword``
    followed by their decimal forms joined by single spaces, else None."""
    if not line.startswith(keyword):
        return None
    tail = line[len(keyword):]
    try:
        values = list(map(int, tail.split(" "))) if tail else []
    except ValueError:
        return None
    return values if keyword + " ".join(map(str, values)) == line else None


def _read_canonical(text: str) -> tuple[BipartiteGraph, tuple[int, ...] | None] | None:
    """The bulk reader: the parse of ``text`` when it is exactly in the shape
    ``format_graph_text`` writes and error-free, else None."""
    end = text.find("\n")
    sizes = _decimals(text[:end], "graph ") if text.endswith("\n") else None
    if sizes is None or len(sizes) != 2 or min(sizes) < 0 or sum(sizes) > MAX_DECLARED:
        return None
    n1, n2 = sizes
    last = text.rfind("\n", 0, -1) + 1  # where the last line starts
    yorder = None
    if last > end and text.startswith("yorder ", last):
        values = _decimals(text[last:-1], "yorder ")
        if values is None or sorted(values) != list(range(1, n2 + 1)):
            return None
        yorder = tuple(values)
    else:
        last = len(text)
    # The whole edge block is checked before anything is decoded, so a text
    # that is valid but not canonical costs string scans only: slice by
    # slice, every line must start with 'edge ' (pos - 1 is always a
    # newline), deleting the digits must then leave 'edge  \n' per line, and
    # no digit run may start with 0 (index 0 is out of range and 007 not
    # canonical).  Each line is then 'edge ' digits ' ' digits; an empty
    # digit run, always an error, is left to json to refuse.
    if text.find(" 0", end, last) >= 0:
        return None
    stops = []
    pos = end + 1
    while pos < last:
        stop = text.rfind("\n", pos, min(pos + _CHUNK, last)) + 1
        lines = text.count("\n", pos, stop)
        if (stop <= pos or text.count("\nedge ", pos - 1, stop - 1) != lines
                or text[pos:stop].translate(_DROP_DIGITS) != "edge  \n" * lines):
            return None
        stops.append(stop)
        pos = stop
    ytab = list(range(n2 + 1))
    xs: list[int] = []
    ys: list[int] = []
    pos = end + 1
    for stop in stops:
        try:
            # 'edge i j\n' becomes ',i,j': the list is 0 and then the pairs.
            nums = json.loads("[0" + text[pos:stop].translate(_TO_JSON) + "]")
            xs += nums[1::2]
            ys += map(ytab.__getitem__, nums[2::2])
        except (ValueError, IndexError):  # an empty or huge run, a big Y index
            return None
        pos = stop
    # X >= 1 by the ' 0' scan; format_graph_text writes X ascending, and the
    # line loop reads the rest.
    if xs != sorted(xs) or xs and xs[-1] > n1:
        return None
    cuts = [bisect_left(xs, i) for i in range(1, n1 + 2)]
    rows = [ys[a:b] for a, b in zip(cuts, islice(cuts, 1, None))]
    del xs, ys
    return _from_rows(n2, rows), yorder


def _read_lines(text: str) -> tuple[BipartiteGraph, tuple[int, ...] | None]:
    """The line loop: reads any text in the graph format and words every error."""
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
            if n1 + n2 > MAX_DECLARED:
                raise CapacityError(
                    f"line {lineno}: the header declares {n1 + n2} vertices, "
                    f"more than the limit of {MAX_DECLARED}"
                )
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "universe":
            if universe is not None:
                raise InputError(f"line {lineno}: duplicate universe line")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 'universe <p>'")
            universe = _ints(parts[1:], lineno)[0]
            if universe < 1:
                raise InputError(f"line {lineno}: universe size must be at least 1, got {universe}")
            if universe > MAX_DECLARED:
                raise CapacityError(
                    f"line {lineno}: universe {universe} exceeds the limit of {MAX_DECLARED}"
                )
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
                if not 1 <= e <= universe:
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
