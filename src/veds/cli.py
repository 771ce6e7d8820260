"""Command-line interface.

One executable, ``veds``, with solve / verify / order / decompose / reduce /
oracle / gen / bench subcommands over the text formats.  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 domain or contract
error, 2 input or parse error, 3 capacity error.

``main`` builds its argparse tree once per process, on its first call, and
reuses it for every later call.  With the tree it builds a table of each
command's actions, read off the tree itself.  A plain argv (the command
words, then exact option strings, each value in a token of its own that
passes the option's type and choices) is read straight off that table into
the namespace ``parse_args`` would return.  Any other argv goes to
``parse_args``, so help, usage errors and abbreviations such as ``--alg``
still come from argparse, with its text and exit codes.  Importing this
module builds nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .chains import decompose, verify_decomposition_lemma
from .errors import InputError, VedsError
from .graph import (
    BipartiteGraph,
    _undominated,
    parse_vertex_name,
    xref,
    yref,
)
from .io import (
    format_graph_text,
    load_graph,
    load_ordered,
    load_set_system,
)
from .oracle import (
    GeneratorConfig,
    brute_force_gamma_ve,
    brute_force_min_cover,
    cross_check,
    gen_random_convex_bipartite,
)
from .ordering import (
    LexConvexOrdering,
    compute_lex_convex_ordering,
    find_convex_ordering_exhaustive,
)
from .reductions import reduce_comb_convex, reduce_star_convex
from .solver import solve_baseline, solve_exact

GRAMMAR_HELP = """\
graph file grammar ('#' starts a comment):
    graph <n1> <n2>
    edge <i> <j>                  # one line per edge x_i ~ y_j
    yorder <j1> ... <jn2>         # optional declared convex ordering of Y

set-system file grammar:
    universe <p>
    set <j>: <e1> <e2> ...        # j consecutive from 1
"""


def _ordering_for(path: str) -> tuple[BipartiteGraph, LexConvexOrdering]:
    g, ordering = load_ordered(path)
    if ordering is None:
        found = find_convex_ordering_exhaustive(g)
        if found is None:
            raise InputError(
                f"{path}: graph is not convex on Y; no ordering exists"
            )
        ordering = compute_lex_convex_ordering(g, found)
    return g, ordering


def _witness_names(refs) -> list[str]:
    return [v.name() for v in sorted(refs)]


def _name_set(refs) -> str:
    return "{" + ", ".join(_witness_names(refs)) + "}"


def _cmd_solve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.algorithm == "bruteforce":
        g, _ = load_graph(args.file)
        result = brute_force_gamma_ve(g)
    else:
        g, ordering = _ordering_for(args.file)
        if args.algorithm == "exact":
            result = solve_exact(g, ordering, trace=args.trace)
        else:
            result = solve_baseline(g, ordering)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if args.json:
        payload = {
            "gamma_ve": result.gamma_ve,
            "witness": _witness_names(result.witness),
            "algorithm": args.algorithm,
            "elapsed_ms": elapsed_ms,
        }
        if result.stats is not None:
            payload["stats"] = result.stats._asdict()
        if args.trace:
            payload["trace"] = [s._asdict() for s in result.trace]
        print(json.dumps(payload))
    else:
        print(f"gamma_ve = {result.gamma_ve}")
        if args.emit_set:
            print("witness = " + _name_set(result.witness))
        if args.trace:
            for s in result.trace:
                print(f"trace: at ({s.subproblem[0]}, {s.subproblem[1]}) took {s.branch}"
                      f" choosing {s.chosen}")
    return 0


def _parse_set_arg(text: str):
    names = text.replace(",", " ").split()
    if not names:
        raise InputError("--set needs at least one vertex name")
    return frozenset(parse_vertex_name(n) for n in names)


def _cmd_verify(args: argparse.Namespace) -> int:
    g, _ = load_graph(args.file)
    d = _parse_set_arg(args.set)
    offending, undominated = _undominated(g, d)
    valid = offending is None
    if args.json:
        payload = {"valid": valid, "undominated_count": undominated}
        if offending:
            payload["undominated_edge"] = [f"x{offending[0]}", f"y{offending[1]}"]
        print(json.dumps(payload))
    elif valid:
        print("VALID")
    else:
        print(f"INVALID: edge x{offending[0]} y{offending[1]} is not dominated"
              f" ({undominated} of {g.m} edges undominated)")
    return 0 if valid else 1


def _cmd_order(args: argparse.Namespace) -> int:
    g, ordering = _ordering_for(args.file)
    # Isolated X vertices carry no interval and are listed first.
    isolated = [i for i, nb in enumerate(g.adj_x, start=1) if not nb]
    blank = [None] * len(isolated)
    xperm = isolated + [x for _, _, x in ordering.intervals]
    left_x = blank + [left for left, _, _ in ordering.intervals]
    right_x = blank + [right for _, right, _ in ordering.intervals]
    # Per Y position, the least and greatest X position among its neighbours.
    xpos = {i: p for p, i in enumerate(xperm, start=1)}
    cols = g.columns()
    hoods = [[xpos[i] for i in cols[j - 1]] for j in ordering.yperm]
    left_y = [min(ps, default=None) for ps in hoods]
    right_y = [max(ps, default=None) for ps in hoods]
    if args.json:
        print(json.dumps({
            "xperm": xperm,
            "yperm": list(ordering.yperm),
            "left_x": left_x,
            "right_x": right_x,
            "left_y": left_y,
            "right_y": right_y,
        }))
        return 0
    print("xperm: " + " ".join(f"x{i}" for i in xperm))
    print("yperm: " + " ".join(f"y{j}" for j in ordering.yperm))
    print(f"{'pos':>4} {'x':>6} {'left':>5} {'right':>6}")
    for p, (i, left, right) in enumerate(zip(xperm, left_x, right_x), start=1):
        print(f"{p:>4} {'x' + str(i):>6} {left if left else '-':>5} {right if right else '-':>6}")
    print(f"{'pos':>4} {'y':>6} {'left':>5} {'right':>6}")
    for p, (j, left, right) in enumerate(zip(ordering.yperm, left_y, right_y), start=1):
        print(f"{p:>4} {'y' + str(j):>6} {left if left else '-':>5} {right if right else '-':>6}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    g, ordering = _ordering_for(args.file)
    decomp = decompose(g, ordering)
    checks = verify_decomposition_lemma(g, decomp)
    passed = all(c.ok for c in checks)
    chains, strands, tail = decomp.parts()
    if args.json:
        print(json.dumps({
            "chains": [{"x": xs, "y": ys} for xs, ys in chains],
            "isolated_sets": strands,
            "tail_isolated": _witness_names(tail),
            "lemma_checks": [
                {"chain": c.chain_index, "clause": c.clause, "ok": c.ok, "detail": c.detail}
                for c in checks
            ],
            "lemma_passed": passed,
        }))
        return 0
    for k, ((xs, ys), js) in enumerate(zip(chains, strands), start=1):
        print(f"chain {k}: X = {_name_set(xref(i) for i in xs)}  "
              f"Y = {_name_set(yref(j) for j in ys)}")
        if js:
            print(f"isolated after chain {k}: {_name_set(xref(i) for i in js)}")
    if tail:
        print(f"tail (flagged): {_name_set(tail)}")
    for c in checks:
        print(f"[chain {c.chain_index}] {c.clause}: {'pass' if c.ok else 'FAIL'} ({c.detail})")
    print(f"lemma verification: {'all clauses passed' if passed else 'FAILED'}")
    return 0


def _format_certificate(art) -> str:
    cert = art.certificate
    roles = {ref: name for name, ref in art.vertex_roles}
    if cert.kind == "star":
        return f"tree star center={roles[xref(cert.center)]}\n"
    backbone = ",".join(roles[xref(r)] for r in cert.backbone)
    teeth = ",".join(f"{roles[xref(t)]}:{roles[xref(r)]}" for r, t in cert.teeth)
    return f"tree comb backbone={backbone} teeth={teeth}\n"


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _cmd_reduce(args: argparse.Namespace) -> int:
    ss = load_set_system(args.file)
    art = reduce_star_convex(ss) if args.target == "star" else reduce_comb_convex(ss)
    text = format_graph_text(art.graph)
    if args.out:
        _write_text(args.out, text)
        if args.certify:
            _write_text(args.out + ".cert", _format_certificate(art))
    else:
        print(text, end="")
        if args.certify:
            print(_format_certificate(art), end="")
    for name, ref in art.vertex_roles:
        print(f"{name} = {ref.name()}", file=sys.stderr if args.out is None else sys.stdout)
    if not ss.is_cover(range(1, ss.q + 1)):
        print("warning: some element lies in no set (no cover exists)", file=sys.stderr)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.kind == "ve":
        g, _ = load_graph(args.file)
        result = brute_force_gamma_ve(g)
        if args.json:
            print(json.dumps({
                "gamma_ve": result.gamma_ve,
                "witness": _witness_names(result.witness),
                "algorithm": "bruteforce",
            }))
        else:
            print(f"gamma_ve = {result.gamma_ve}")
            print("witness = " + _name_set(result.witness))
    else:
        ss = load_set_system(args.file)
        cover = brute_force_min_cover(ss)
        if args.json:
            print(json.dumps({"cover": sorted(cover) if cover is not None else None}))
        elif cover is None:
            print("cover = none")
        else:
            print(f"cover size = {len(cover)}")
            print("cover = {" + ", ".join(str(j) for j in sorted(cover)) + "}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    g = gen_random_convex_bipartite(GeneratorConfig(
        n1=args.n1,
        n2=args.n2,
        density=args.density,
        seed=args.seed,
        require_connected=args.connected,
    ))
    print(format_graph_text(g, yorder=tuple(range(1, g.n2 + 1))), end="")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    report = cross_check(args.trials, args.max_n, args.seed)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(report.to_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veds",
        description="Minimum vertex-edge domination on convex bipartite graphs.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute gamma_ve of a graph file")
    p.add_argument("file")
    p.add_argument("--algorithm", choices=["exact", "baseline", "bruteforce"], default="exact")
    p.add_argument("--emit-set", action="store_true", help="print the witness set")
    p.add_argument(
        "--trace", action="store_true", help="print the solver's decisions in the order it made them"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("verify", help="check a vertex set against the domination definition")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma/space-separated names, e.g. 'x1,y2'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("order", help="print the lexicographic convex ordering")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("decompose", help="print the chain decomposition and its checks")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("reduce", help="reduce a set system to a domination instance")
    p.add_argument("file")
    p.add_argument("--target", choices=["star", "comb"], required=True)
    p.add_argument("--out", help="write the graph here instead of stdout")
    p.add_argument("--certify", action="store_true", help="emit the witness tree")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    osub = p.add_subparsers(dest="kind", required=True)
    q = osub.add_parser("ve", help="exhaustive minimum VED-set")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")
    q.set_defaults(handler=_cmd_oracle)
    q = osub.add_parser("setcover", help="exhaustive minimum set cover")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")
    q.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("gen", help="generate random instances")
    gsub = p.add_subparsers(dest="family", required=True)
    q = gsub.add_parser("convex", help="random convex bipartite graph (identity yorder)")
    q.add_argument("--n1", type=int, required=True)
    q.add_argument("--n2", type=int, required=True)
    q.add_argument("--density", type=float, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--connected", action="store_true")
    q.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("bench", help="cross-check exact solver against brute force")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True, help="largest n1 + n2, at most 22")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_bench)
    return parser


def _plain_commands(parser: argparse.ArgumentParser, words=(), start=None) -> dict:
    """Map each leaf command path of ``parser``, such as ``("oracle", "ve")``,
    to what ``_read_plain`` needs, read off the parser's own actions: the
    number of command words, the namespace before any token after them is
    read, the positional actions, the option actions by exact option string
    (help left out) and the required options.  A leaf with an action other
    than a one-value ``store`` or a ``store_true`` gets no entry."""
    # argparse fills each level's namespace with its action defaults, then
    # its set_defaults; a subcommand's level overrides its parent's.
    level = {a.dest: a.default for a in parser._actions
             if argparse.SUPPRESS not in (a.dest, a.default)}
    start = {**(start or {}), **parser._defaults, **level}
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    table = {}
    for a in actions:
        if isinstance(a, argparse._SubParsersAction):
            for word, sub in a.choices.items():
                table.update(_plain_commands(sub, words + (word,), {**start, a.dest: word}))
            return table
    if not all(type(a) is argparse._StoreTrueAction
               or (type(a) is argparse._StoreAction and a.nargs is None) for a in actions):
        return table
    table[words] = (
        len(words),
        start,
        tuple(a for a in actions if not a.option_strings),
        {s: a for a in actions for s in a.option_strings},
        frozenset(a for a in actions if a.option_strings and a.required),
    )
    return table


def _read_plain(argv: list[str], table: dict) -> argparse.Namespace | None:
    """The namespace ``parse_args(argv)`` returns, read straight off
    ``table`` (see ``_plain_commands``) when ``argv`` is plain, else None.

    Plain means: the command words, then tokens in which each one that
    starts with ``-`` is an exact option string of the command; a
    ``store_true`` option sets its constant, a ``store`` option takes the
    next token, which must not start with ``-`` and must pass the action's
    type and choices; the last of a repeated option wins; every positional
    is filled once and every required option is given.  Anything else
    (help, abbreviations, ``--opt=value``, ``--``, negative values, usage
    errors) is left to argparse, so its help and error text stay its own.
    """
    entry = table.get(tuple(argv[:1])) or table.get(tuple(argv[:2]))
    if entry is None:
        return None
    i, start, positionals, options, required = entry
    values = dict(start)
    seen = set()
    filled = 0
    n = len(argv)
    while i < n:
        token = argv[i]
        i += 1
        if token[:1] != "-":
            if filled == len(positionals):
                return None
            action = positionals[filled]
            filled += 1
        else:
            action = options.get(token)
            if action is None:
                return None
            seen.add(action)
            if action.nargs == 0:
                values[action.dest] = action.const
                continue
            if i == n or argv[i][:1] == "-":
                return None
            token = argv[i]
            i += 1
        try:
            value = action.type(token) if action.type else token
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if filled < len(positionals) or not required <= seen:
        return None
    return argparse.Namespace(**values)


_parser: argparse.ArgumentParser | None = None
_plain: dict = {}


def main(argv: list[str] | None = None) -> int:
    global _parser, _plain
    if _parser is None:
        _parser = build_parser()
        _plain = _plain_commands(_parser)
    try:
        args = _read_plain(sys.argv[1:] if argv is None else argv, _plain)
        if args is None:
            args = _parser.parse_args(argv)
        return args.handler(args)
    except VedsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        return 0


def run_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run_main()
