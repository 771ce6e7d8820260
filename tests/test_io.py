import random

import pytest

from veds import (
    InputError,
    SetSystem,
    build_graph,
    format_graph_text,
    format_set_system_text,
    parse_graph_text,
    parse_set_system_text,
)

from conftest import random_convex_instance

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
    "text,fragment",
    [
        ("set 1: 1\n", "before 'universe'"),
        ("universe 2\nset 2: 1\n", "consecutive"),
        ("universe 2\nset 1: 5\n", "out of range"),
        ("universe 2\nset 1:\n", "empty"),
        ("universe 2\n", "no sets"),
    ],
)
def test_set_system_parse_errors(text, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_set_system_text(text)
