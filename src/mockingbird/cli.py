"""Command-line surface: rewriting, graph export, property checks, forest
translation, sequence enumeration, oracle counts, and cross-checks.

Exit codes: 0 success, 1 property failure or comparison mismatch, 2 usage
or input error, 141 when the reader of standard output has left (as for a
writer killed by SIGPIPE).  Machine-readable output goes to standard
output only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from typing import Optional

from . import bridge, oracle, rewrite, sequences
from .forests import render_forest
from .posets import (
    DEFAULT_BUDGET,
    ExploredPoset,
    IncompleteExplorationError,
    poset_analysis,
)
from .terms import Term, TermError, parse_term, render_term


def export_graph(g: ExploredPoset, format: str = "json",
                 hasse_only: bool = False) -> str:
    """Serialize an explored poset of terms as DOT or JSON, each node
    labelled by render_term; hasse_only drops self-loops and transitive
    edges (requires prior analysis)."""
    if not g.is_complete:
        raise IncompleteExplorationError("cannot export an incomplete graph")
    if hasse_only:
        if g.hasse_edges is None:
            raise IncompleteExplorationError("hasse export requires analysis")
        edges = sorted(g.hasse_edges)
    else:
        edges = sorted(g.step_edges)
    labels = [render_term(node) for node in g.nodes]
    if format == "json":
        payload = {
            "nodes": labels,
            "step_edges": [] if hasse_only else edges,
            "hasse_edges": None if g.hasse_edges is None else sorted(g.hasse_edges),
            "flags": {
                "is_complete": g.is_complete,
                "is_acyclic": g.is_acyclic,
                "is_lattice": g.is_lattice,
            },
        }
        if g.analyzed:
            payload["minimal"] = sorted(g.minimal)
            payload["maximal"] = sorted(g.maximal)
        return json.dumps(payload, indent=2, sort_keys=True)
    if format == "dot":
        lines = ["digraph explored {"]
        for i, label in enumerate(labels):
            lines.append(f'  n{i} [label="{label}"];')
        for i, j in edges:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)
    raise TermError(f"unknown format {format!r}")


def _parse_with_system(args) -> tuple[rewrite.CLSystem, Term]:
    sys_text = args.system
    if not sys_text.startswith("builtin:") and os.path.exists(sys_text):
        with open(sys_text) as handle:
            sys_text = handle.read()
    system = rewrite.load_system(sys_text)
    term = parse_term(args.term, system.alphabet)
    # the rewrite step has no depth limit, but the term printer recurses
    if term.height >= sys.getrecursionlimit():
        raise TermError("term nested too deeply")
    return system, term


def _cmd_reduce(args) -> int:
    system, term = _parse_with_system(args)
    chain = rewrite.reduction_chain(system, term)
    for steps, term in enumerate(islice(chain, max(args.max_steps, 0) + 1)):
        print(render_term(term))
    if steps >= args.max_steps:
        print("... step limit reached", file=sys.stderr)
    return 0


def _cmd_graph(args) -> int:
    system, term = _parse_with_system(args)
    g = rewrite.explore_component(system, term, "up", budget=args.budget)
    if g.is_complete:
        poset_analysis(g, check_lattice=len(g.nodes) <= 2000)
    elif args.hasse:
        print("error: budget exhausted, no Hasse diagram", file=sys.stderr)
        return 2
    print(export_graph(g, format=args.format, hasse_only=args.hasse))
    return 0


def _cmd_check(args) -> int:
    system, term = _parse_with_system(args)
    g = rewrite.explore_component(system, term, "up", budget=args.budget)
    rows: list[tuple[str, str]] = []
    failed = False
    rows.append(("complete", str(g.is_complete)))
    if g.is_complete:
        poset_analysis(g, check_lattice=len(g.nodes) <= 2000)
        rows.append(("nodes", str(len(g.nodes))))
        rows.append(("acyclic", str(g.is_acyclic)))
        rows.append(("rooted (unique minimal)", str(len(g.minimal) == 1)))
        rows.append(("unique maximal", str(len(g.maximal) == 1)))
        lattice = "skipped (too large)" if g.is_lattice is None else str(g.is_lattice)
        rows.append(("lattice", lattice))
    else:
        failed = True
    for name, flag in sorted(rewrite.is_hierarchical(system).items()):
        rows.append((f"hierarchical[{name}]", str(flag)))
    # a walk from a successor stays inside the explored upset, so on a
    # complete exploration this budget never cuts a walk short
    probe = rewrite.local_confluence_probe(system, term,
                                           join_budget=len(g.nodes))
    rows.append(("confluence pairs", str(probe.pairs_checked)))
    rows.append(("confluence joinable", str(probe.all_joinable)))
    if probe.failures or probe.inconclusive:
        failed = True
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 1 if failed else 0


def _cmd_fr(args) -> int:
    term = parse_term(args.term, {"M"})
    print(render_forest(bridge.fr_map(term)))
    return 0


def _cmd_enumerate(args) -> int:
    table = sequences.METHODS[args.method](args.name, args.count,
                                           indexing=args.indexing)
    if args.json:
        print(json.dumps(table.to_json_dict(), indent=2, sort_keys=True))
    else:
        print("[" + ",".join(map(sequences.decimal_str, table.values)) + "]")
    return 0


def _cmd_oracle(args) -> int:
    counts = oracle.oracle_poset_counts(args.d)
    payload = {
        "d": counts.d,
        "elements": str(counts.elements),
        "hasse_edges": str(counts.hasse_edges),
        "intervals": None if counts.intervals is None else str(counts.intervals),
        "cover_equals_step": counts.cover_equals_step,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_crosscheck(args) -> int:
    report = sequences.crosscheck_all(max_d=args.max_d, gated=args.gated)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        for label, ok, detail in report.verdicts:
            status = "ok" if ok else "FAIL"
            suffix = f"  {detail}" if detail else ""
            print(f"{status:<4}  {label}{suffix}")
    return 0 if report.ok else 1


def _cmd_compare(args) -> int:
    bfile = sequences.load_bfile(args.bfile)
    count = min(len(bfile.values), args.count)
    table = sequences.METHODS[args.method](args.name, count,
                                           indexing=args.indexing)
    report = sequences.compare(bfile, table)
    if report.ok:
        note = f" ({report.warning})" if report.warning else ""
        print(f"match over {report.overlap} terms{note}")
        return 0
    i = report.first_mismatch
    print(f"mismatch at index {i}: "
          f"b-file {sequences.decimal_str(bfile.values[i])} vs "
          f"computed {sequences.decimal_str(table.values[i])}")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mockingbird",
        description="Combinatory-logic rewriting and lattice enumeration")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_args(p):
        p.add_argument("term")
        p.add_argument("--system", default="builtin:M",
                       help="builtin:NAME or a system file path")

    p = sub.add_parser("reduce", help="print a rewrite chain to a normal form")
    add_system_args(p)
    p.add_argument("--max-steps", type=int, default=1000)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("graph", help="explore and export a component")
    add_system_args(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--hasse", action="store_true",
                   help="export covering edges only (drops self-loops)")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("check", help="poset/lattice/confluence verdict table")
    add_system_args(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fr", help="forest translation of a Mockingbird term")
    p.add_argument("term")
    p.set_defaults(func=_cmd_fr)

    p = sub.add_parser("enumerate", help="print a counting sequence")
    p.add_argument("name", choices=sequences.SEQUENCE_NAMES)
    p.add_argument("--method", choices=tuple(sequences.METHODS),
                   default="recurrence")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--indexing", choices=("mockingbird", "ladder"),
                   default="mockingbird")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("oracle", help="explicit ladder-upset counts")
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("crosscheck", help="all-methods consistency check")
    p.add_argument("--max-d", type=int, default=12)
    p.add_argument("--gated", action="store_true",
                   help="include the streaming depth-5 oracle (minutes)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("compare", help="b-file vs computed sequence")
    p.add_argument("bfile")
    p.add_argument("name", choices=sequences.SEQUENCE_NAMES)
    # the oracle reaches only a few terms of any b-file
    p.add_argument("--method", default="recurrence",
                   choices=[m for m in sequences.METHODS if m != "oracle"])
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--indexing", choices=("mockingbird", "ladder"),
                   default="mockingbird")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early (head, grep -q): not an input error; what
        # is still buffered goes to the null device at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports such a writer
    except (TermError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the term printer and the forest meet and join recurse; graph,
        # check and reduce refuse a term as high as the recursion limit
        print("error: term nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
