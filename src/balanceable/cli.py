"""Command-line front end: classification, witnesses, tables, and the
cut-problem reducer.

``classify``, ``conditions`` and ``witness`` print one flat report: every
key of ``REPORT_KEYS`` under --json (unset keys null), else its text lines.
``_verdict_report`` builds that report from a verdict for ``classify`` and
``witness``.  ``family-table`` and ``grid-table`` print through
``_print_table``, and ``family-table`` and ``verify`` walk the same
``(k, ell)`` range, ``_chorded_sweep``.

Exit codes: 0 on success (also when the reader closes stdout early, which
drops the rest of the output silently), 1 on parameter errors (bad specs,
bad files, bad flag values), on running out of memory, and when ``verify``
finds a construction that disagrees with the oracle, 2 when a search budget
was exhausted before an answer was reached, and 3 when a closed-form
construction fails its own edge count (a ``ConstructionBug``, a defect of
the library rather than of the input), reported as one stderr line
``balanceable: internal error: <message>``.  A family spec of more than
``families.ORDER_LIMIT`` vertices or ``families.EDGE_LIMIT`` edges is a
parameter error, refused before its graph is built, and so is a sweep
(``family-table``, ``verify``, ``grid-table``) whose largest graph is.

Each command imports the modules it runs inside its handler, so a process
loads ``families``, ``graphs`` and ``oracle`` plus only what its command
needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from .families import FamilyParams, _refuse_oversized, graph_from_spec, parse_family_spec
from .graphs import Graph, VertexSet, parse_edge_list
from .oracle import BudgetExceeded, Verdict, decide_balanceable

if TYPE_CHECKING:
    from .witnesses import ConstructionResult

__all__ = ["run_cli", "main"]

EXIT_OK = 0
EXIT_PARAMS = 1
EXIT_BUDGET = 2
EXIT_DEFECT = 3

REPORT_KEYS = (
    "input status obstruction detail case_id cut_side induced_set cut_edges "
    "induced_edges independent_set conditions notes timing_ms budget_status"
).split()


def _load_graph(token: str) -> Graph:
    """A graph argument is a family spec like cycle:12 or grid:4x8, else the
    path of an existing edge-list file (./cycle:12 names a file)."""
    try:
        return graph_from_spec(token)
    except ValueError:
        if not os.path.exists(token):
            raise
    with open(token, encoding="utf-8") as handle:
        return parse_edge_list(handle.read())


def _timed(fn, *args, **kwargs):
    """``fn``'s value and its wall time in milliseconds."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, (time.perf_counter() - start) * 1000.0


def _print_json(value) -> None:
    print(json.dumps(value, indent=2, sort_keys=True))


def _emit(args, report: dict, lines: list[str]) -> None:
    if args.json:
        _print_json({**dict.fromkeys(REPORT_KEYS), "budget_status": "ok", **report})
    else:
        print("\n".join(lines))


def _verdict_report(
    name: str,
    verdict: Verdict,
    timing_ms: float,
    case_id: str | None = None,
    independent_set: VertexSet | None = None,
    notes: str | None = None,
) -> tuple[dict, list[str]]:
    """The report of a verdict and its text lines; ``witness`` adds its
    construction's case id, independent set and notes."""
    report = {
        "input": name,
        "status": verdict.status,
        "case_id": case_id,
        "notes": notes,
        "timing_ms": timing_ms,
    }
    head = f"{name}: {verdict.status}" + (f" [{case_id}]" if case_id is not None else "")
    lines = []
    w = verdict.witness
    if w is not None:
        report.update(
            cut_side=list(w.cut_side.indices()),
            induced_set=list(w.induced_set.indices()),
            cut_edges=w.cut_edges,
            induced_edges=w.induced_edges,
        )
        lines.append(f"  cut side X = {report['cut_side']} crossing {w.cut_edges} edges")
        lines.append(f"  induced set W = {report['induced_set']} with {w.induced_edges} edges")
    if independent_set is not None:
        report["independent_set"] = list(independent_set.indices())
        lines.append(f"  independent set I = {report['independent_set']}")
    if verdict.obstruction is not None:
        report.update(obstruction=verdict.obstruction.kind.value, detail=verdict.obstruction.detail)
        head += f" ({report['obstruction']})"
    if verdict.status == "Undecided":
        report.update(detail=verdict.reason, budget_status="exceeded")
    if report.get("detail"):
        lines.append(f"  {report['detail']}")
    if notes:
        lines.append(f"  notes: {notes}")
    return report, [head] + lines


def _cmd_classify(args) -> int:
    verdict, elapsed = _timed(decide_balanceable, _load_graph(args.graph), budget=args.budget)
    _emit(args, *_verdict_report(args.graph, verdict, elapsed))
    return EXIT_OK if verdict.status != "Undecided" else EXIT_BUDGET


def _cmd_conditions(args) -> int:
    from .conditions import condition_reports

    reports, elapsed = _timed(condition_reports, _load_graph(args.graph), node_budget=args.budget)
    rows = [
        {
            "condition": r.condition.value,
            "outcome": r.outcome,
            "witness": list(r.witness.indices()) if r.witness is not None else None,
            "note": r.note,
        }
        for r in reports
    ]
    lines = [f"{args.graph} conditions:"]
    lines += [f"  {row['condition']}: {row['outcome']}; {row['note']}" for row in rows]
    report = {"input": args.graph, "status": "ok", "conditions": rows, "timing_ms": elapsed}
    _emit(args, report, lines)
    return EXIT_OK


def _cmd_witness(args) -> int:
    from .witnesses import witness_for_spec

    result, elapsed = _timed(witness_for_spec, parse_family_spec(args.family))
    extras = (result.case_id, result.independent_set, result.notes)
    _emit(args, *_verdict_report(args.family, result.verdict, elapsed, *extras))
    return EXIT_OK


def _print_table(args, columns: tuple[str, ...], rows: list[tuple]) -> None:
    """One object per row under --json, else left-aligned text columns."""
    if args.json:
        _print_json([dict(zip(columns, row)) for row in rows])
        return
    cells = [columns] + [[str(value) for value in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    for line in cells:
        print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())


def _summary(result: ConstructionResult) -> tuple:
    """Status, case id, cut edges and induced edges of a construction; the
    counts are None when it has no witness."""
    w = result.witness
    counts = (w.cut_edges, w.induced_edges) if w is not None else (None, None)
    return (result.verdict.status, result.case_id, *counts)


def _chorded_sweep(kmax: int):
    """(k, ell, circulant_witness(k, ell)) for 4 <= k <= kmax and
    2 <= ell <= k/2, built lazily; a kmax below 4, or one whose largest
    graph is over the size limit, is refused at once."""
    from .witnesses import circulant_witness

    if kmax < 4:
        raise ValueError("kmax must be at least 4")
    _refuse_oversized(FamilyParams("chorded", (kmax, 2)))
    return (
        (k, ell, circulant_witness(k, ell))
        for k in range(4, kmax + 1)
        for ell in range(2, k // 2 + 1)
    )


def _cmd_family_table(args) -> int:
    rows = [(k, ell, *_summary(result)) for k, ell, result in _chorded_sweep(args.kmax)]
    _print_table(args, ("k", "ell", "status", "case", "cut_edges", "induced_edges"), rows)
    return EXIT_OK


def _cmd_grid_table(args) -> int:
    from .witnesses import rect_grid_witness, tri_grid_witness

    if args.rect is not None:
        if args.rect < 2:
            raise ValueError("kmax must be at least 2")
        _refuse_oversized(FamilyParams("grid", (args.rect, args.rect)))
        rows = [
            (k, ell, *_summary(rect_grid_witness(k, ell))[:3])
            for k in range(2, args.rect + 1)
            for ell in range(k, args.rect + 1, 2)
        ]
        _print_table(args, ("k", "ell", "status", "case", "half_edges"), rows)
        return EXIT_OK
    if args.tri < 1:
        raise ValueError("hmax must be at least 1")
    # refused here: the loop below would read the ValueError as OddEdges
    _refuse_oversized(FamilyParams("tri", (args.tri,)))
    rows = []
    for h in range(1, args.tri + 1):
        try:
            rows.append((h, *_summary(tri_grid_witness(h))[:3]))
        except ValueError:  # odd edge count
            rows.append((h, "OddEdges", None, None))
    _print_table(args, ("h", "status", "case", "half_edges"), rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    rows = [
        {
            "k": k,
            "ell": ell,
            "construction": result.verdict.status,
            "oracle": decide_balanceable(result.graph, budget=args.budget).status,
        }
        for k, ell, result in _chorded_sweep(args.kmax)
    ]
    undecided = [r for r in rows if r["oracle"] == "Undecided"]
    mismatches = [r for r in rows if r["construction"] != r["oracle"] and r["oracle"] != "Undecided"]
    if args.json:
        _print_json({"instances": len(rows), "mismatches": mismatches, "undecided": undecided})
    else:
        for r in mismatches:
            print(
                f"MISMATCH k={r['k']} ell={r['ell']}: "
                f"construction {r['construction']}, oracle {r['oracle']}"
            )
        for r in undecided:
            print(f"UNDECIDED k={r['k']} ell={r['ell']}: oracle budget exhausted")
        print(f"{len(rows)} instances, {len(mismatches)} mismatches, {len(undecided)} undecided")
    if undecided:
        return EXIT_BUDGET
    return EXIT_OK if not mismatches else EXIT_PARAMS


def _cmd_bal(args) -> int:
    from .ramsey import bal_number

    g = graph_from_spec(args.graph)
    value = bal_number(args.n, g)
    if args.json:
        print(json.dumps({"n": args.n, "graph": args.graph, "bal": value}, sort_keys=True))
    elif value is None:
        print(f"bal({args.n}, {args.graph}): always present")
    else:
        print(f"bal({args.n}, {args.graph}) = {value}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    from .reduction import CutInstance, format_cut_instance, reduce_maxcut_to_exactcut

    with open(args.file, encoding="utf-8") as handle:
        g = parse_edge_list(handle.read())
    reduced = reduce_maxcut_to_exactcut(CutInstance(g, args.k))
    if args.json:
        print(
            json.dumps(
                {
                    "n": reduced.graph.n,
                    "edges": sorted(reduced.graph.edges()),
                    "target": reduced.k,
                },
                sort_keys=True,
            )
        )
    else:
        print(format_cut_instance(reduced), end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARAMS)


def _add_common(sub, *, budget: bool = False) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if budget:
        sub.add_argument(
            "--budget",
            type=int,
            default=28,
            metavar="LOG2",
            help="log2 of the subset/node budget per search (default 28)",
        )


def run_cli(argv=None) -> int:
    parser = _Parser(prog="balanceable", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("classify", help="exact verdict for a graph or family spec")
    sub.add_argument("graph", help="family spec (cycle:12) or edge-list file")
    _add_common(sub, budget=True)
    sub.set_defaults(handler=_cmd_classify)

    sub = commands.add_parser("conditions", help="evaluate the shortcut conditions")
    sub.add_argument("graph", help="family spec or edge-list file")
    _add_common(sub, budget=True)
    sub.set_defaults(handler=_cmd_conditions)

    sub = commands.add_parser("witness", help="closed-form construction for a family")
    sub.add_argument("family", help="family spec (chorded:38,8, grid:4x8, tri:9, ...)")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_witness)

    sub = commands.add_parser("family-table", help="chorded-cycle verdict table")
    sub.add_argument("--kmax", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_family_table)

    sub = commands.add_parser("grid-table", help="grid verdict table")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--rect", type=int, metavar="KMAX")
    group.add_argument("--tri", type=int, metavar="HMAX")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_grid_table)

    sub = commands.add_parser("verify", help="constructions vs oracle agreement sweep")
    sub.add_argument("--kmax", type=int, required=True)
    _add_common(sub, budget=True)
    sub.set_defaults(handler=_cmd_verify)

    sub = commands.add_parser(
        "bal", help="balanced-copy threshold over isomorphism classes of colorings"
    )
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--graph", required=True, help="family spec for the pattern graph")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_bal)

    sub = commands.add_parser("reduce", help="transform a max-cut instance to exact-cut")
    sub.add_argument("file", help="edge-list file")
    sub.add_argument("--k", type=int, required=True, help="max-cut target")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_reduce)

    args = parser.parse_args(argv)
    if hasattr(args, "budget"):
        if not 0 <= args.budget <= 60:
            print("balanceable: error: --budget must lie in 0..60", file=sys.stderr)
            return EXIT_PARAMS
        args.budget = 1 << args.budget
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head -1`): drop the rest, and
        # point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except BudgetExceeded as exc:
        print(f"balanceable: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"balanceable: error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except AssertionError as exc:  # a ConstructionBug, which cli does not import
        print(f"balanceable: internal error: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except MemoryError:
        print(f"balanceable: error: out of memory running {args.command}", file=sys.stderr)
        return EXIT_PARAMS


def main() -> int:
    return run_cli()


if __name__ == "__main__":
    sys.exit(main())
