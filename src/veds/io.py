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
with no sign and, past the header (read by ``int`` as the line loop reads
it), no leading zero, single spaces, ``\n`` line ends and no comments.
Whole-string operations check that shape over the whole file before
anything is decoded, every line start and the ``yorder`` line included.
The same bulk pass then decodes the ``yorder`` line with one
``json.loads`` and each slice of at most 64 KiB of edge lines with one
``str.translate`` pass and one ``json.loads``.  Every Y index goes through
a ``list(range(n2 + 1))`` table, so the graph holds one int object per Y
index.  The rows, cut at each slice's X column (ascending, at most ``n1``),
are checked strictly ascending in bulk: every Y that does not rise starts a
row.  ``load_ordered`` cuts the slice's Y positions under the yorder into
the same rows and derives their intervals as ``LexConvexOrdering`` does; a
row out of order or with a gap leaves the ordering to it.  Any other text, a
malformed one included, goes through the line loop, which reads the lines
once and words every error; only an empty or out-of-range index, X out of
order or a ``yorder`` that is no permutation is found after the bulk reader
has decoded.  Both run in O(L + n1 + n2 + m) time for a file of L
characters and m edges whose rows come strictly ascending, plus one sort
per X vertex whose row does not; the bulk reader needs O(64 KiB + n1 + n2 + m)
memory besides the text.

A graph header may declare at most ``MAX_DECLARED`` vertices and a set system
a universe of at most that size (``CapacityError``), so a short file cannot
make the readers allocate without bound.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import islice, repeat
from operator import ge
from pathlib import Path

from .errors import CapacityError, InputError
from .graph import BipartiteGraph, _from_rows
from .ordering import Interval, LexConvexOrdering, _positions, _spans
from .reductions import SetSystem

__all__ = [
    "parse_graph_text",
    "format_graph_text",
    "load_graph",
    "load_ordered",
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
    return (_read_canonical(text) or _read_lines(text))[:2]


def _read_canonical(text: str, ordered: bool = False) -> tuple[
        BipartiteGraph, tuple[int, ...] | None, LexConvexOrdering | None] | None:
    """The bulk reader: graph, yorder and (if ``ordered``, no row falls and none has a
    gap) ordering of ``text`` if exactly as ``format_graph_text`` writes it, error-free."""
    end = text.find("\n")
    head = text[:end]
    # 'graph ' and two digit runs, read by int as the line loop reads them.
    if (not text.endswith("\n") or head[:6] != "graph "
            or head.translate(_DROP_DIGITS) != "graph  "):
        return None
    try:
        n1, n2 = map(int, head[6:].split(" "))
    except ValueError:  # an empty or huge run
        return None
    if n1 + n2 > MAX_DECLARED:
        return None
    last = text.rfind("\n", 0, -1) + 1  # where the last line starts
    yline = None
    if last > end and text.startswith("yorder ", last):
        # n2 digit runs joined by n2 - 1 single spaces, none of them empty.
        yline = text[last + 7:-1]
        if yline.translate(_DROP_DIGITS) != " " * (n2 - 1) or n2 and "  " in f" {yline} ":
            return None
    else:
        last = len(text)
    # The whole edge block is checked before anything is decoded, so a text
    # that is valid but not canonical costs string scans only: slice by
    # slice, every line must start with 'edge ' (pos - 1 is always a
    # newline), deleting the digits must then leave 'edge  \n' per line, and
    # no digit run, the yorder's included, may start with 0 (index 0 is out
    # of range and 007 not canonical).  Each line is then 'edge ' digits ' '
    # digits; an empty digit run, always an error, is left to json to refuse.
    if text.find(" 0", end) >= 0:
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
    yorder = None
    if yline is not None:
        try:
            yorder = tuple(json.loads("[" + yline.replace(" ", ",") + "]"))
            ypos = _positions(yorder, n2)
        except (ValueError, InputError):  # a run too long for an int, no permutation
            return None
    ytab = list(range(n2 + 1))
    ascending = True
    # The intervals of the rows so far, while wanted and no row falls or has a gap.
    found: list[Interval] | None = [] if ordered and yorder is not None else None
    rows: list[tuple[int, ...]] = []  # the rows of x_1 .. x_{len(rows)}
    row: list[int] = []  # the row of x_{len(rows) + 1} so far
    prow: list[int] = []  # the same as Y positions under ypos
    pos = end + 1
    for stop in stops:
        try:
            # 'edge i j\n' becomes ',i,j': the list is 0 and then the pairs.
            nums = json.loads("[0" + text[pos:stop].translate(_TO_JSON) + "]")
            ys = tuple(map(ytab.__getitem__, nums[2::2]))
        except (ValueError, IndexError):  # an empty or huge run, a big Y index
            return None
        xs = nums[1::2]
        # X >= 1 by the ' 0' scan; format_graph_text writes X ascending,
        # across slices too, and the line loop reads the rest.
        i = len(rows) + 1
        if xs != sorted(xs) or xs[0] < i or xs[-1] > n1:
            return None
        # Only this slice's X column is held: x_i's row may have begun in
        # the slice before, and that of xs[-1] goes on in the next one, if any.
        cuts = list(map(bisect_left, repeat(xs), range(i + 1, xs[-1] + 1 + (stop == last))))
        # The rows ascend strictly when every Y that does not rise (from the
        # open row, for ys[0]) starts a row: its index is a cut.
        falls = [bool(row) and ys[0] <= row[-1], *map(ge, ys, ys[1:]), False]
        for c in cuts:
            falls[c] = False
        if True in falls:
            ascending = found = None
        row = _cut(ys, cuts, rows, row)
        if found is not None:
            prows: list[list[int]] = []  # the rows of x_i .. x_{len(rows)}
            prow = _cut([ypos[j] for j in ys], cuts, prows, prow)
            if not _spans(prows, i, found):
                found = None  # the gap is LexConvexOrdering's to report
        pos = stop
    rows += [()] * (n1 - len(rows))
    g = BipartiteGraph(n1, n2, tuple(rows)) if ascending else _from_rows(n2, rows)
    return g, yorder, None if found is None else LexConvexOrdering._of(g, yorder, ypos, found)


def _cut(col: tuple | list, cuts: list[int], rows: list, row: list[int]) -> list[int]:
    """File the rows a slice's column ends, the open ``row`` first; return the new one."""
    if not cuts:
        row += col
        return row
    rows.append((*row, *col[:cuts[0]]))
    rows += [col[a:b] for a, b in zip(cuts, islice(cuts, 1, None))]
    return list(col[cuts[-1]:])


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
    """The file's text exactly as ``open(path, encoding="utf-8").read()``
    reads it: UTF-8 with a byte order mark kept, and universal newlines
    (``\r\n`` and a lone ``\r`` read as ``\n``).  The bytes are read in
    one call without a text-mode file object."""
    try:
        with open(path, "rb", buffering=0) as f:
            text = f.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_graph(path: str | Path) -> tuple[BipartiteGraph, tuple[int, ...] | None]:
    return parse_graph_text(_read_text(path))


def load_ordered(path: str | Path) -> tuple[BipartiteGraph, LexConvexOrdering | None]:
    """The graph of a file and ``LexConvexOrdering(graph, yorder)`` for its
    declared yorder (InputError on a gap), or None when it declares none."""
    text = _read_text(path)
    g, yorder, ordering = _read_canonical(text, ordered=True) or (*_read_lines(text), None)
    return g, ordering or (None if yorder is None else LexConvexOrdering(g, yorder))


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
