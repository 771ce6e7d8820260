"""The contract of the public records: immutable values that survive pickle
and copy, and that run their checks however they are built."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import veds
from veds import (
    BipartiteGraph,
    GeneratorConfig,
    InputError,
    LexConvexOrdering,
    SetSystem,
    build_graph,
    compute_lex_convex_ordering,
    counterexample_graph,
    cross_check,
    decompose,
    reduce_comb_convex,
    solve_exact,
    validate_convex_ordering,
    verify_decomposition_lemma,
    verify_tree_convexity,
    xref,
)
from veds.oracle import Disagreement


def test_import_loads_no_dataclasses():
    # -S keeps site hooks from deciding which modules are loaded.
    src = str(Path(veds.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, veds, veds.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def public_records():
    """One instance of every public record type."""
    g = counterexample_graph()
    ordering = compute_lex_convex_ordering(g, (1, 2, 3))
    decomp = decompose(g, ordering)
    report = verify_decomposition_lemma(g, decomp)
    result = solve_exact(g, ordering, trace=True)
    ss = SetSystem(3, (frozenset({1, 2}), frozenset({2, 3})))
    art = reduce_comb_convex(ss)
    return [
        g, xref(1), validate_convex_ordering(g, (1, 2, 3)), ordering,
        decomp, report, report.checks[0], result, result.stats, result.trace[0],
        ss, art, art.certificate, verify_tree_convexity(art.graph, art.certificate),
        GeneratorConfig(4, 5, 0.5, seed=3), cross_check(3, 8, 1),
        Disagreement(1, "graph 1 1\nedge 1 1\n", 1, 2),
    ]


def test_graph_record_is_its_x_rows():
    # Each edge is stored once, in its X row; the Y side is derived.
    assert BipartiteGraph._fields == ("n1", "n2", "adj_x")


@pytest.mark.parametrize("record", public_records(), ids=lambda r: type(r).__name__)
def test_record_is_an_immutable_value(record):
    for other in (
        pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL)),
        copy.deepcopy(record),
        copy.copy(record),
    ):
        assert type(other) is type(record) and other == record
        assert hash(other) == hash(record)
        for name in record._fields:
            assert getattr(other, name) == getattr(record, name)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_ordering_survives_pickle_and_copy_with_its_derived_fields():
    g = counterexample_graph()
    ordering = compute_lex_convex_ordering(g, (3, 2, 1))
    for other in (pickle.loads(pickle.dumps(ordering)), copy.deepcopy(ordering)):
        assert other.intervals == ordering.intervals
        assert other.ypos == (0, 3, 2, 1)


def test_ordering_replace_derives_fields_from_the_new_yperm():
    g = counterexample_graph()
    ordering = compute_lex_convex_ordering(g, (1, 2, 3))
    flipped = ordering._replace(yperm=(3, 2, 1))
    fresh = compute_lex_convex_ordering(g, (3, 2, 1))
    assert flipped == fresh and flipped != ordering
    assert flipped.intervals == fresh.intervals != ordering.intervals
    assert flipped.ypos[1] == 3
    assert LexConvexOrdering._make((g, (3, 2, 1))).intervals == fresh.intervals
    assert ordering._replace() == ordering


def test_ordering_compares_by_graph_and_yperm_and_reprs_without_the_graph():
    g = counterexample_graph()
    ordering = compute_lex_convex_ordering(g, [1, 2, 3])
    assert ordering == LexConvexOrdering(g, (1, 2, 3))
    assert hash(ordering) == hash(LexConvexOrdering(g, (1, 2, 3)))
    assert ordering != LexConvexOrdering(build_graph(3, 3, [(1, 1), (2, 2)]), (1, 2, 3))
    assert ordering != LexConvexOrdering(g, (3, 2, 1))
    assert ordering != (g, (1, 2, 3))
    assert repr(ordering) == "LexConvexOrdering(yperm=(1, 2, 3))"


def test_ordering_derived_fields_cannot_be_supplied():
    g = counterexample_graph()
    ordering = compute_lex_convex_ordering(g, (1, 2, 3))
    assert ordering._fields == ("graph", "yperm", "intervals", "ypos")
    for build in (
        lambda: LexConvexOrdering(g, (1, 2, 3), ordering.intervals, ordering.ypos),
        lambda: ordering._replace(intervals=()),
        lambda: LexConvexOrdering._make(tuple(ordering)),
    ):
        with pytest.raises(TypeError):
            build()


def rebuild_from_pickle_recipe(record, protocol, **changes):
    """Run the constructor that unpickling at this protocol runs, with the
    named fields swapped for new values."""
    func, args = record.__reduce_ex__(protocol)[:2]
    swap = {id(getattr(record, name)): value for name, value in changes.items()}
    return func(*(swap.get(id(a), a) for a in args))


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


def ordering_builds(yperm):
    g = counterexample_graph()
    good = compute_lex_convex_ordering(g, (1, 2, 3))
    return [
        lambda: LexConvexOrdering(g, yperm),
        lambda: good._replace(yperm=yperm),
        lambda: LexConvexOrdering._make((g, yperm)),
    ] + [lambda p=p: rebuild_from_pickle_recipe(good, p, yperm=yperm) for p in PROTOCOLS]


def set_system_builds(universe, sets):
    good = SetSystem(3, (frozenset({1, 2}), frozenset({3})))
    return [
        lambda: SetSystem(universe, sets),
        lambda: SetSystem(universe=universe, sets=sets),
        lambda: good._replace(universe=universe, sets=sets),
        lambda: SetSystem._make((universe, sets)),
    ] + [
        lambda p=p: rebuild_from_pickle_recipe(good, p, universe=universe, sets=sets)
        for p in PROTOCOLS
    ]


@pytest.mark.parametrize("builds, message", [
    (ordering_builds((1, 3, 2)), "yperm is not a convex ordering: N(x1) has a gap at position 2"),
    (ordering_builds((1, 1, 2)), "yperm is not a permutation of 1..3: (1, 1, 2)"),
    (set_system_builds(0, (frozenset({1}),)), "universe size must be at least 1, got 0"),
    (set_system_builds(3, (frozenset({1}), frozenset())), "set 2 is empty"),
    (set_system_builds(3, (frozenset({4}),)), "set 1 contains out-of-range element 4"),
], ids=["gap", "not-a-permutation", "universe", "empty-set", "out-of-range"])
def test_every_way_of_building_runs_the_checks(builds, message):
    for build in builds:
        with pytest.raises(InputError) as exc:
            build()
        assert str(exc.value) == message
