import random
import tracemalloc
from types import SimpleNamespace

import pytest

from veds import (
    CapacityError,
    GeneratorConfig,
    InputError,
    LexConvexOrdering,
    SetSystem,
    VedsError,
    build_graph,
    format_graph_text,
    format_set_system_text,
    gen_random_convex_bipartite,
    parse_graph_text,
    parse_set_system_text,
)
from veds import io
from veds.cli import main

from conftest import random_convex_instance, relabel_y
from test_solver import golden_instances

SAMPLE = """\
# a comment
graph 3 3
edge 1 1
edge 1 2   # trailing comment
edge 2 2
edge 3 2
edge 3 3
yorder 1 2 3
"""


def test_parse_sample(counterexample):
    g, yorder = parse_graph_text(SAMPLE)
    assert g == counterexample
    assert yorder == (1, 2, 3)


def test_parse_without_yorder():
    g, yorder = parse_graph_text("graph 1 1\nedge 1 1\n")
    assert g.m == 1 and yorder is None


def test_graph_round_trip_is_bit_exact():
    rng = random.Random(67)
    for _ in range(40):
        g, _ = random_convex_instance(rng)
        yorder = tuple(range(1, g.n2 + 1))
        text = format_graph_text(g, yorder)
        g2, y2 = parse_graph_text(text)
        assert g2 == g and y2 == yorder
        assert format_graph_text(g2, y2) == text


# (text, short name for the test id, exact message).  The messages, line
# numbers included, and which check fires first are the reader's contract.
PARSE_ERRORS = [
    ("edge 1 1\n", "before 'graph'", "line 1: 'edge' before 'graph' header"),
    ("graph 1 1\ngraph 1 1\n", "duplicate", "line 2: duplicate graph header"),
    ("graph 1 1\nedge 2 1\n", "out of range", "line 2: edge (2, 1) out of range"),
    ("graph 1 1\nedge 1\n", "expected", "line 2: expected 'edge <i> <j>'"),
    ("graph 1 2\nyorder 1 1\n", "permutation", "line 2: yorder must be a permutation of 1..2"),
    ("graph a b\n", "integers", "line 1: expected integers, got 'a b'"),
    ("graph 1 1\nweird 1\n", "unknown directive", "line 2: unknown directive 'weird'"),
    ("", "missing", "missing 'graph <n1> <n2>' header"),
    ("graph 2 3\nedge 1 2 3\n", "expected", "line 2: expected 'edge <i> <j>'"),
    ("graph 2 3\nedge a 1\n", "integers", "line 2: expected integers, got 'a 1'"),
    ("graph 2 3\nedge 0 1\n", "out of range", "line 2: edge (0, 1) out of range"),
    ("graph 2 3\nedge 1 -1\n", "out of range", "line 2: edge (1, -1) out of range"),
    ("graph 2 3\nedge 1 1\n# note\nedge 3 1\n", "out of range",
     "line 4: edge (3, 1) out of range"),
    ("graph 2 3\nedge 1 1\nedge 1 a\n", "integers", "line 3: expected integers, got '1 a'"),
    ("graph 2 3\nedge 1 1\nyorder 1 2 3\nyorder 1 2 3\n", "duplicate",
     "line 4: duplicate yorder"),
]


@pytest.mark.parametrize(
    "text,message",
    [pytest.param(text, message, id=f"{text}-{name}") for text, name, message in PARSE_ERRORS],
)
def test_parse_errors(text, message):
    with pytest.raises(InputError) as raised:
        parse_graph_text(text)
    assert str(raised.value) == message


# Headers past the limit of 10**7 vertices: the bulk reader declines them
# and the line loop refuses them, both before allocating anything.
CAPACITY_ERRORS = [
    ("graph 100000000000 1\n", "line 1: the header declares 100000000001 vertices, "
     "more than the limit of 10000000"),
    ("# big\ngraph 5000000 5000001\nedge 1 1\n", "line 2: the header declares 10000001 "
     "vertices, more than the limit of 10000000"),
]


@pytest.mark.parametrize("text,message", CAPACITY_ERRORS)
def test_parse_refuses_oversized_headers(text, message):
    with pytest.raises(CapacityError) as raised:
        parse_graph_text(text)
    assert str(raised.value) == message


def test_set_system_refuses_oversized_universe():
    with pytest.raises(CapacityError) as raised:
        parse_set_system_text("universe 1000000000000\nset 1: 1\n")
    assert str(raised.value) == "line 1: universe 1000000000000 exceeds the limit of 10000000"


@pytest.mark.parametrize("argv,text", [
    (["solve", "{f}"], "graph 100000000000 1\n"),
    (["oracle", "setcover", "{f}"], "universe 1000000000000\nset 1: 1\n"),
])
def test_oversized_headers_exit_3(argv, text, tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(text)
    code = main([str(path) if a == "{f}" else a for a in argv])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: line 1: ")


def outcome(read, text):
    """What a reader makes of text: the graph and yorder, or the error."""
    try:
        return read(text)
    except VedsError as exc:
        return type(exc).__name__, str(exc)


FUZZ_TOKENS = ("\t", "\r", "\x0b", "\x1c", "#", "+", "_", "007", "1e0", "[", ",",
               "\uff13", "edge ", "yorder ")


def mutate(text: str, rng: random.Random) -> str:
    """One random edit: a token of FUZZ_TOKENS inserted, one character or
    one occurrence of a token deleted, a character replaced by a token, a
    digit replaced by a digit, or a whole line deleted, moved or repeated."""
    op = rng.randrange(8)
    k = rng.randrange(len(text) + 1)
    if op == 0:
        return text[:k] + rng.choice(FUZZ_TOKENS) + text[k:]
    if op == 1:
        return text[:k] + text[k + 1:]
    if op == 2:
        token = rng.choice(FUZZ_TOKENS)
        at = text.find(token, k)
        return text if at < 0 else text[:at] + text[at + len(token):]
    if op == 3:
        return text[:k] + rng.choice(FUZZ_TOKENS) + text[k + 1:]
    if op == 4:
        digits = [p for p, c in enumerate(text) if c in "0123456789"]
        k = rng.choice(digits) if digits else 0
        return text[:k] + rng.choice("0123456789") + text[k + 1:]
    lines = text.splitlines(keepends=True)
    line = lines.pop(rng.randrange(len(lines)))
    for _ in range(op - 5):  # op 5 deletes the line, 6 moves it, 7 repeats it
        lines.insert(rng.randrange(len(lines) + 1), line)
    return "".join(lines)


def canonical_texts(rng: random.Random, count: int):
    for _ in range(count):
        g, _ = random_convex_instance(rng, max_side=12)
        if rng.random() < 0.5:
            g, sigma = relabel_y(g, rng)
            yield format_graph_text(g, sigma)
        else:
            yield format_graph_text(g)


def test_bulk_reader_agrees_with_line_loop():
    # Every text gets the same graph and yorder, or the same error, from
    # parse_graph_text as from the line loop alone, whichever path it takes.
    rng = random.Random(1409)
    bulk = 0
    for text in canonical_texts(rng, 9000):
        for _ in range(rng.choice((1, 1, 2))):
            text = mutate(text, rng)
        assert outcome(parse_graph_text, text) == outcome(io._read_lines, text), repr(text)
        bulk += io._read_canonical(text) is not None
    assert bulk >= 2000


def test_every_canonical_golden_file_takes_the_bulk_path(monkeypatch):
    def refuse(text):
        raise AssertionError(f"line loop read {text!r}")

    monkeypatch.setattr(io, "_read_lines", refuse)
    for g, ordv in golden_instances():
        for text in (format_graph_text(g, ordv.yperm), format_graph_text(g)):
            assert parse_graph_text(text) == (g, ordv.yperm if "yorder" in text else None)


def big_canonical_text(n: int, width: int) -> str:
    """x_i adjacent to y_i .. y_{i + width - 1}, clipped at n = n1 = n2."""
    edges = [(i, j) for i in range(1, n + 1) for j in range(i, min(n, i + width - 1) + 1)]
    return format_graph_text(build_graph(n, n, edges))


# (text, whether the bulk reader takes it).  Each must read as the line
# loop reads it.
BULK_CASES = [
    ("graph 2 3\n", True),  # no edges
    ("graph 0 0\n", True),
    ("graph 0 0\nyorder \n", True),
    ("graph 0 3\nyorder 3 1 2\n", True),  # only a yorder
    ("graph 2 3\nedge 1 2\nedge 2 3", False),  # no trailing newline
    ("graph 2 3\nedge 1 2\nedge 2 3\nyorder 1 2 3", False),
    ("graph 2 3\nyorder 1 2 3\nedge 1 2\n", False),  # yorder before the edges
    ("graph 3 3\nedge 2 1\nedge 1 2\nedge 3 3\nedge 1 1\n", False),  # X out of order
    ("graph 2 3\nedge 1 2\nedge 1 2\nedge 2 3\nedge 2 1\nyorder 1 2 3\n", True),
    ("graph 2 3\nedge 1 0\n", False),
    ("graph 2 3\nedge 1 4\n", False),
    ("graph 2 3\nedge 3 1\n", False),
    ("graph 2 3\nedge 1 02\n", False),
    ("graph 2 3\nedge 1 \n", False),  # an empty index, refused by json
    ("graph 2 3\nedge 1 2\n1edge 2 3\n", False),  # a line not starting 'edge '
    ("graph 2 3\nedge1 2 3\n", False),
    # A digit glued into 'edge', with n2 large enough that a reader which
    # dropped the letters would read an edge in range, (1, 21) or (1, 5).
    ("graph 2 30\nedge 1 2\n1edge 2 3\n", False),
    ("graph 3 30\nedge 1 2\nedge1 2 3\n", False),
    ("graph 3 30\nedge 1 2\ne1dge 2 3\n", False),
    ("graph 3 30\nedge 1 \n5edge 2 3\n", False),
    ("graph 3 30\nedge 1 2\nedge 12345678901234567890 3\n", False),  # a huge X
    ("graph 2 3\nedge 1 2\nyorder 1 2\n", False),
    ("graph 2 3\nedge 1 2\nyorder 1 2 3\nyorder 1 2 3\n", False),
    ("graph 2 -3\n", False),
    ("graph 2 3 \n", False),
    (big_canonical_text(400, 30), True),  # over 64 KiB
    (big_canonical_text(400, 30).replace("\nedge 399 ", "\nedge 401 "), False),
    (big_canonical_text(400, 30) + "yorder " + " ".join(map(str, range(1, 401))) + "\n",
     True),
    # yorder lines: the bulk reader takes only n2 canonical decimals joined
    # by single spaces, and only a permutation of 1..n2.
    ("graph 2 3\nedge 1 2\nyorder 1 02 3\n", False),
    ("graph 2 3\nedge 1 2\nyorder 1 2 0\n", False),
    ("graph 2 3\nedge 1 2\nyorder 1  2 3\n", False),
    ("graph 2 3\nedge 1 2\nyorder  1 2 3\n", False),
    ("graph 2 3\nedge 1 2\nyorder 1 2 3 \n", False),
    ("graph 2 3\nedge 1 2\nyorder 1 2 +3\n", False),
    ("graph 2 3\nedge 1 2\nyorder 1 2 \uff13\n", False),
    ("graph 2 3\nedge 1 2\nyorder 1 2 3 4\n", False),
    ("graph 2 3\nedge 1 2\nyorder 1 2 2\n", False),
    ("graph 2 3\nedge 1 2\nyorder 1 2 4\n", False),
    ("graph 2 3\nedge 1 2\nyorder 3 1 2\n", True),
    ("graph 1 1\nedge 1 1\nyorder 1\n", True),
    ("graph 1 1\nedge 1 1\nyorder \n", False),
    ("graph 1 1\nedge 1 1\nyorder 2\n", False),
    ("graph 1 1\nyorder " + "1" * 5000 + "\n", False),  # too long for int()
    # The header's two digit runs are read by int, as the line loop reads
    # them: leading zeros are taken in bulk, any other shape is not.
    ("graph 007 3\nedge 1 2\nedge 7 3\n", True),
    ("graph 2 03\nedge 1 2\nyorder 3 1 2\n", True),
    ("graph 00 0\n", True),
    ("graph +2 3\nedge 1 2\n", False),
    ("graph 2  3\nedge 1 2\n", False),
    ("graph \uff12 3\nedge 1 2\n", False),
    ("graph 2 3 4\nedge 1 2\n", False),
    ("graph 2\n", False),
    ("graph  3\n", False),
    ("gr2aph 3 4\n", False),  # the digits deleted, this reads 'graph  '
    ("graph " + "1" * 5000 + " 3\n", False),  # too long for int()
]


@pytest.mark.parametrize("text,bulk", BULK_CASES,
                         ids=[f"case{k}" for k in range(len(BULK_CASES))])
def test_bulk_reader_cases(text, bulk):
    assert (io._read_canonical(text) is not None) == bulk
    assert outcome(parse_graph_text, text) == outcome(io._read_lines, text)


# Faults in the last lines of a canonical file over 64 KiB.
LATE_FAULTS = [
    lambda t: t + "# end\n",
    lambda t: t + "\n",
    lambda t: t + "yorder " + " ".join(map(str, range(1, 401))) + "\nedge 1 1\n",
    lambda t: t[:-1] + "\r\n",
    lambda t: t.replace("\nedge 399 ", "\nedge 0399 "),
    lambda t: t.replace("\nedge 400 400\n", "\nedge 400  400\n"),
    lambda t: t.replace("\nedge 400 400\n", "\nedge 400 4\uff10\n"),
    # A digit glued into 'edge': the digits still read as X ascending and Y
    # in range once the letters are gone, so only the line starts tell.
    lambda t: t.replace("\nedge 399 399\n", "\nedge3 99 399\n"),
    lambda t: t.replace("\nedge 399 399\n", "\ne3dge 99 399\n"),
    lambda t: t.replace("\nedge 399 399\n", "\n3edge 99 399\n"),
    lambda t: t.replace("\nedge 399 400\nedge 400 400\n", "\nedge 399 \n400edge 400 400\n"),
    # A valid yorder is decoded only once every edge slice has passed.
    lambda t: t.replace("\nedge 400 400\n", "\nedge 400 4\uff10\n")
    + "yorder " + " ".join(map(str, range(1, 401))) + "\n",
]


@pytest.mark.parametrize("fault", LATE_FAULTS, ids=[f"fault{k}" for k in range(len(LATE_FAULTS))])
def test_bulk_reader_declines_late_faults_before_decoding(fault, monkeypatch):
    text = fault(big_canonical_text(400, 30))
    assert len(text) > 2 * io._CHUNK

    def refuse(_):
        raise AssertionError("decoded a text that is not canonical")

    monkeypatch.setattr(io, "json", SimpleNamespace(loads=refuse))
    assert io._read_canonical(text) is None
    assert outcome(parse_graph_text, text) == outcome(io._read_lines, text)


def test_bulk_reader_agrees_on_digits_glued_into_edge():
    # One digit inserted into one 'edge ' token of a canonical text.  With
    # n2 >= 30, a reader that lost the token would mostly misread the digit
    # as part of an index still in range, not refuse it.
    rng = random.Random(1931)
    for _ in range(1500):
        cfg = GeneratorConfig(n1=rng.randint(1, 12), n2=rng.randint(30, 60),
                              density=rng.uniform(0.02, 0.2), seed=rng.getrandbits(48))
        text = format_graph_text(gen_random_convex_bipartite(cfg))
        starts = [k + 1 for k, c in enumerate(text) if c == "\n"][:-1]
        k = rng.choice(starts) + rng.randrange(5)
        text = text[:k] + rng.choice("0123456789") + text[k:]
        assert io._read_canonical(text) is None, repr(text)
        assert outcome(parse_graph_text, text) == outcome(io._read_lines, text), repr(text)


def test_bulk_reader_memory_and_shared_ints():
    # A canonical file with m ~ 1e5 and indices past the small-int cache:
    # parse_graph_text peaks at no more than half the line loop alone on the
    # same text, and the graph holds one int object per index.
    text = big_canonical_text(1000, 100)
    assert len(text) > 10 * io._CHUNK

    def peak(read):
        tracemalloc.start()
        try:
            parsed = read(text)
            return tracemalloc.get_traced_memory()[1], parsed
        finally:
            tracemalloc.stop()

    bulk_peak, (g, _) = peak(parse_graph_text)
    loop_peak, (g2, _) = peak(io._read_lines)
    assert g == g2 and g.m > 95_000
    assert bulk_peak <= loop_peak / 2
    ints = {id(v) for nb in g.adj_x for v in nb}
    assert len(ints) <= g.n2


def load_then_order(path):
    """load_graph followed by LexConvexOrdering(g, yorder): what load_ordered
    must return, or the error it must raise."""
    g, yorder = io.load_graph(path)
    return g, None if yorder is None else LexConvexOrdering(g, yorder)


def assert_ordered_read_agrees(text, tmp_path):
    """load_ordered gives the same graph and ordering as load_then_order, or
    the same error; returns whether the bulk reader built the ordering."""
    path = tmp_path / "g.cbg"
    path.write_bytes(text.encode())
    got, want = outcome(io.load_ordered, path), outcome(load_then_order, path)
    assert got == want, repr(text)
    if isinstance(got[1], LexConvexOrdering):
        ordering = got[1]
        assert type(ordering) is LexConvexOrdering
        for field in ("graph", "yperm", "intervals", "ypos"):
            assert getattr(ordering, field) == getattr(want[1], field), field
    try:
        read = io._read_canonical(text, ordered=True)
    except InputError:
        return False
    return read is not None and read[2] is not None


def test_load_ordered_agrees_on_random_and_mutated_files(tmp_path):
    # Y-relabelled canonical files, half with a yorder, some mutated by the
    # fuzz edits: moved and repeated lines put rows out of order or repeat
    # edges, and the other edits make the text non-canonical or malformed.
    rng = random.Random(3001)
    built = 0
    for text in canonical_texts(rng, 1500):
        if rng.random() < 0.4:
            text = mutate(text, rng)
        built += assert_ordered_read_agrees(text, tmp_path)
    assert built >= 400


# (text, whether the bulk reader builds the ordering in its own pass).
ORDERED_CASES = [
    ("graph 3 3\nedge 1 1\nedge 1 2\nedge 2 2\nedge 3 2\nedge 3 3\nyorder 1 2 3\n", True),
    # Row 1 reads y2, y1, y2: out of order and a repeated edge, so the
    # bulk reader sorts that row and the ordering is built from the graph.
    ("graph 3 3\nedge 1 2\nedge 1 1\nedge 1 2\nedge 2 2\nedge 3 2\nedge 3 3\nyorder 1 2 3\n",
     False),
    ("graph 2 3\nedge 1 2\nedge 1 1\nedge 2 3\nyorder 1 2 3\n", False),
    # Isolated X vertices first, between and last.
    ("graph 5 3\nedge 2 1\nedge 2 2\nedge 4 3\nyorder 3 1 2\n", True),
    ("graph 0 3\nyorder 3 1 2\n", True),
    ("graph 2 0\nyorder \n", True),
    ("graph 0 0\nyorder \n", True),
    ("graph 2 3\nedge 1 2\n", False),  # no yorder
    ("graph 3 3\nedge 1 1\nedge 1 2\nedge 2 2\nedge 3 2\nedge 3 3\n", False),
    # Not canonical: the line loop reads it.
    ("# c\ngraph 3 3\nedge 1 1\nedge 1 2\nedge 2 2\nedge 3 2\nedge 3 3\nyorder 1 2 3\n", False),
    ("graph 3 3\nedge 1 1\nedge 1  2\nedge 2 2\nyorder 3 2 1\n", False),
    # Malformed: the line loop words the error.
    ("graph 3 3\nedge 1 4\nyorder 1 2 3\n", False),
    ("graph 3 3\nedge 1 1\nyorder 1 2 2\n", False),
    # Not convex under the yorder: the same gap error on every path.
    ("graph 3 3\nedge 1 1\nedge 1 2\nedge 2 2\nedge 2 3\nedge 3 1\nedge 3 3\nyorder 1 2 3\n",
     False),
    ("graph 3 3\nedge 1 1\nedge 1 3\nyorder 1 2 3\n", False),
    ("graph 3 3\nedge 1 3\nedge 1 1\nyorder 1 2 3\n", False),
    ("# c\ngraph 3 3\nedge 1 1\nedge 1 3\nyorder 1 2 3\n", False),
]


@pytest.mark.parametrize("text,built", ORDERED_CASES,
                         ids=[f"case{k}" for k in range(len(ORDERED_CASES))])
def test_load_ordered_cases(text, built, tmp_path):
    assert assert_ordered_read_agrees(text, tmp_path) == built


def test_load_ordered_raises_the_gap_error_of_the_ordering(tmp_path):
    path = tmp_path / "gap.cbg"
    path.write_text("graph 3 3\nedge 1 1\nedge 1 3\nedge 2 2\nyorder 1 2 3\n")
    with pytest.raises(InputError) as raised:
        io.load_ordered(path)
    assert str(raised.value) == "yperm is not a convex ordering: N(x1) has a gap at position 2"


def straddling_text(rng: random.Random) -> tuple[str, int]:
    """A Y-relabelled canonical text over 64 KiB whose first slice ends
    inside a row, and the index of the first line of the second slice."""
    g, sigma = relabel_y(parse_graph_text(big_canonical_text(400, 30))[0], rng)
    text = format_graph_text(g, sigma)
    start = text.find("\n") + 1
    stop = text.rfind("\n", start, start + io._CHUNK) + 1
    lines = text.splitlines(keepends=True)
    at = text.count("\n", 0, stop)
    assert lines[at - 1].split()[1] == lines[at].split()[1]  # one row on both sides
    return text, at


def test_load_ordered_agrees_across_the_slice_boundary(tmp_path):
    rng = random.Random(64)
    text, at = straddling_text(rng)
    assert len(text) > 2 * io._CHUNK
    assert assert_ordered_read_agrees(text, tmp_path)
    # The two edges on either side of the boundary swapped: each slice is
    # ascending on its own, and only the junction shows the row out of
    # order.  Then the same two edges on the first side, a repeat.
    lines = text.splitlines(keepends=True)
    for first, second in ((lines[at], lines[at - 1]), (lines[at - 1], lines[at - 1])):
        edited = "".join(lines[:at - 1] + [first, second] + lines[at + 1:])
        assert io._read_canonical(edited) is not None
        assert not assert_ordered_read_agrees(edited, tmp_path)
    # A gap in the straddling row: the yorder with two of its Y swapped.
    row = [int(line.split()[2]) for line in lines[at - 1:at + 1]]
    sigma = [int(v) for v in lines[-1].split()[1:]]
    a, b = sigma.index(row[0]), next(k for k, j in enumerate(sigma) if j not in row
                                     and abs(k - sigma.index(row[0])) > 40)
    sigma[a], sigma[b] = sigma[b], sigma[a]
    edited = "".join(lines[:-1]) + "yorder " + " ".join(map(str, sigma)) + "\n"
    path = tmp_path / "g.cbg"
    path.write_text(edited)
    with pytest.raises(InputError, match="is not a convex ordering"):
        io.load_ordered(path)
    assert not assert_ordered_read_agrees(edited, tmp_path)


GRAPH_FILE = "graph 3 3\nedge 1 1\nedge 1 2\nedge 2 2\nedge 3 2\nedge 3 3\nyorder 1 2 3\n"
SET_FILE = "universe 3\nset 1: 1 2\nset 2: 2 3\n"

# name -> the bytes of a file made from a text in the format.
RAW_FILES = {
    "lf": lambda t: t.encode(),
    "crlf": lambda t: t.replace("\n", "\r\n").encode(),
    "lone-cr": lambda t: t.replace("\n", "\r").encode(),
    "cr-crlf": lambda t: t.replace("\n", "\r\r\n").encode(),
    "trailing-cr": lambda t: (t[:-1] + "\r").encode(),
    "bom": lambda t: b"\xef\xbb\xbf" + t.encode(),
    "empty": lambda t: b"",
    "bad-utf8-early": lambda t: t.encode()[:12] + b"\xff" + t.encode()[12:],
    "bad-utf8-late": lambda t: t.encode() + b"# pad\n" * 2000 + b"\xe2\x82\n",
    "dir": None,
    "missing": None,
}


@pytest.mark.parametrize("name", RAW_FILES)
@pytest.mark.parametrize("load,parse,text", [
    (io.load_graph, parse_graph_text, GRAPH_FILE),
    (io.load_set_system, parse_set_system_text, SET_FILE),
], ids=["graph", "set-system"])
def test_load_reads_what_text_mode_reads(name, load, parse, text, tmp_path):
    # The loaders read bytes, yet give the result or the error text that
    # parsing a text-mode read of the same file gives.
    path = tmp_path / "in.txt"
    if name == "dir":
        path.mkdir()
    elif name != "missing":
        path.write_bytes(RAW_FILES[name](text))
    try:
        with open(path, encoding="utf-8") as f:
            expected = outcome(parse, f.read())
    except (OSError, UnicodeDecodeError) as exc:
        expected = "InputError", f"cannot read {path}: {exc}"
    assert outcome(load, path) == expected
    assert outcome(load, str(path)) == expected


EDGE_FORMS = ("edge {} {}", "\tedge\t{}\t{}", "  edge {}  {} # c", "edge {} {}\t")


def test_parse_matches_build_graph_on_messy_edge_lines():
    # Shuffled and repeated edge lines, with comments, tabs, blank lines and
    # CRLF endings, read as the graph build_graph makes of the same pairs.
    rng = random.Random(211)
    for _ in range(200):
        g, _ = random_convex_instance(rng, max_side=9)
        pairs = list(g.edges())
        pairs += rng.choices(pairs, k=len(pairs) // 2)
        rng.shuffle(pairs)
        lines = ["# generated", f"graph\t{g.n1} {g.n2}  # header"]
        for i, j in pairs:
            if rng.random() < 0.2:
                lines.append(rng.choice(["", "  ", "# edge 1 1", "\t# note"]))
            lines.append(rng.choice(EDGE_FORMS).format(i, j))
        text = rng.choice(["\n", "\r\n"]).join(lines) + "\r\n"
        parsed, yorder = parse_graph_text(text)
        assert yorder is None
        assert parsed == build_graph(g.n1, g.n2, pairs) == g


def test_non_canonical_integer_tokens():
    # Tokens go through int(): signs, leading zeros, underscores and
    # non-ASCII digits read as they always have.
    g, yorder = parse_graph_text(
        "graph 10 10\nedge +3 007\nedge 1_0 \uff13\nedge 3 7\nedge 03 +7\nyorder " +
        " ".join(["+1", "02"] + [str(j) for j in range(3, 11)]) + "\n"
    )
    assert g == build_graph(10, 10, [(3, 7), (10, 3)])
    assert yorder == tuple(range(1, 11))


SCP = """\
universe 3
set 1: 1 2
set 2: 2 3
set 3: 3
"""


def test_parse_set_system():
    ss = parse_set_system_text(SCP)
    assert ss.universe == 3
    assert ss.sets == (frozenset({1, 2}), frozenset({2, 3}), frozenset({3}))


def test_set_system_round_trip():
    ss = SetSystem(4, (frozenset({1, 4}), frozenset({2, 3})))
    text = format_set_system_text(ss)
    assert parse_set_system_text(text) == ss
    assert format_set_system_text(parse_set_system_text(text)) == text


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param("set 1: 1\n", "line 1: 'set' before 'universe'",
                     id="set 1: 1\n-before 'universe'"),
        pytest.param("universe 2\nset 2: 1\n",
                     "line 2: set indices must be consecutive from 1 (expected 1, got 2)",
                     id="universe 2\nset 2: 1\n-consecutive"),
        pytest.param("universe 2\nset 1: 5\n", "line 2: element 5 out of range",
                     id="universe 2\nset 1: 5\n-out of range"),
        pytest.param("universe 2\nset 1:\n", "line 2: set 1 is empty",
                     id="universe 2\nset 1:\n-empty"),
        pytest.param("universe 2\n", "set system declares no sets", id="universe 2\n-no sets"),
        pytest.param("universe 3 4\n", "line 1: expected 'universe <p>'",
                     id="universe 3 4\n-two sizes"),
        # A universe below 1 is refused at its own line, before any set.
        pytest.param("universe 0\nset 1: 1\n", "line 1: universe size must be at least 1, got 0",
                     id="universe 0\nset 1: 1\n-universe at least 1"),
        pytest.param("universe 0\n", "line 1: universe size must be at least 1, got 0",
                     id="universe 0\n-universe at least 1"),
        pytest.param("# c\nuniverse -2\n", "line 2: universe size must be at least 1, got -2",
                     id="comment-then-negative-universe"),
        # Blank and comment lines count towards the line numbers.
        pytest.param("\nuniverse 2\nfrobnicate 1\n", "line 3: unknown directive 'frobnicate'",
                     id="blank-then-unknown-directive"),
        pytest.param("# c\nuniverse 2\n\nuniverse 3\n", "line 4: duplicate universe line",
                     id="comment-then-duplicate-universe"),
        pytest.param("universe 2\n# c\nset 1 1 2\n", "line 3: expected 'set <j>: <elements>'",
                     id="comment-then-set-without-colon"),
        pytest.param("\n\nuniverse 2\nset 1: 1 two\n", "line 4: expected integers, got '1 two'",
                     id="blank-then-non-integer"),
    ],
)
def test_set_system_parse_errors(text, message):
    with pytest.raises(InputError) as exc:
        parse_set_system_text(text)
    assert str(exc.value) == message
