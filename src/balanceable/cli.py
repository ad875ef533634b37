"""Command-line front end: classification, witnesses, tables, and the
cut-problem reducer.

Exit codes: 0 on success, 1 on parameter errors (bad specs, bad files,
bad flag values), 2 when a search budget was exhausted before an answer
was reached.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

from .conditions import condition_reports
from .families import graph_from_spec, parse_family_spec
from .graphs import Graph, parse_edge_list
from .oracle import BudgetExceeded, Verdict, decide_balanceable
from .ramsey import bal_number
from .reduction import CutInstance, format_cut_instance, reduce_maxcut_to_exactcut
from .witnesses import (
    ConstructionResult,
    circulant_witness,
    rect_grid_witness,
    tri_grid_witness,
    witness_for_spec,
)

__all__ = ["Report", "report_to_json", "run_cli", "main"]

EXIT_OK = 0
EXIT_PARAMS = 1
EXIT_BUDGET = 2


@dataclass(frozen=True)
class Report:
    """JSON-friendly result envelope for the single-graph subcommands."""

    input: str
    status: str
    obstruction: str | None = None
    detail: str | None = None
    case_id: str | None = None
    cut_side: list | None = None
    induced_set: list | None = None
    cut_edges: int | None = None
    induced_edges: int | None = None
    independent_set: list | None = None
    conditions: list | None = None
    notes: str | None = None
    timing_ms: float = 0.0
    budget_status: str = "ok"


def report_to_json(report: Report) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True)


def _verdict_fields(verdict: Verdict) -> dict:
    fields: dict = {"status": verdict.status}
    if verdict.witness is not None:
        w = verdict.witness
        fields.update(
            cut_side=list(w.cut_side.indices()),
            induced_set=list(w.induced_set.indices()),
            cut_edges=w.cut_edges,
            induced_edges=w.induced_edges,
        )
    if verdict.obstruction is not None:
        fields.update(
            obstruction=verdict.obstruction.kind.value,
            detail=verdict.obstruction.detail,
        )
    if verdict.status == "Undecided":
        fields.update(detail=verdict.reason, budget_status="exceeded")
    return fields


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


def _emit(args, report: Report, text_lines: list[str]) -> None:
    if args.json:
        print(report_to_json(report))
    else:
        print("\n".join(text_lines))


def _witness_lines(report: Report) -> list[str]:
    lines = []
    if report.cut_side is not None:
        lines.append(f"  cut side X = {report.cut_side} crossing {report.cut_edges} edges")
        lines.append(f"  induced set W = {report.induced_set} with {report.induced_edges} edges")
    if report.independent_set is not None:
        lines.append(f"  independent set I = {report.independent_set}")
    if report.detail:
        lines.append(f"  {report.detail}")
    if report.notes:
        lines.append(f"  notes: {report.notes}")
    return lines


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    start = time.perf_counter()
    verdict = decide_balanceable(g, budget=args.budget)
    elapsed = (time.perf_counter() - start) * 1000.0
    report = Report(input=args.graph, timing_ms=elapsed, **_verdict_fields(verdict))
    head = f"{args.graph}: {report.status}"
    if report.obstruction is not None:
        head += f" ({report.obstruction})"
    _emit(args, report, [head] + _witness_lines(report))
    return EXIT_OK if verdict.status != "Undecided" else EXIT_BUDGET


def _cmd_conditions(args) -> int:
    g = _load_graph(args.graph)
    start = time.perf_counter()
    reports = condition_reports(g, node_budget=args.budget)
    elapsed = (time.perf_counter() - start) * 1000.0
    rows = [
        {
            "condition": r.condition.value,
            "outcome": r.outcome,
            "witness": list(r.witness.indices()) if r.witness is not None else None,
            "note": r.note,
        }
        for r in reports
    ]
    report = Report(input=args.graph, status="ok", conditions=rows, timing_ms=elapsed)
    lines = [f"{args.graph} conditions:"]
    for row in rows:
        lines.append(f"  {row['condition']}: {row['outcome']}; {row['note']}")
    _emit(args, report, lines)
    return EXIT_OK


def _construction_report(spec: str, result: ConstructionResult, elapsed: float) -> Report:
    fields = _verdict_fields(result.verdict)
    ind = result.independent_set
    return Report(
        input=spec,
        case_id=result.case_id,
        independent_set=list(ind.indices()) if ind is not None else None,
        notes=result.notes,
        timing_ms=elapsed,
        **fields,
    )


def _cmd_witness(args) -> int:
    params = parse_family_spec(args.family)
    start = time.perf_counter()
    result = witness_for_spec(params)
    elapsed = (time.perf_counter() - start) * 1000.0
    report = _construction_report(args.family, result, elapsed)
    head = f"{args.family}: {report.status} [{report.case_id}]"
    if report.obstruction is not None:
        head += f" ({report.obstruction})"
    _emit(args, report, [head] + _witness_lines(report))
    return EXIT_OK


def _family_row(k: int, ell: int) -> dict:
    result = circulant_witness(k, ell)
    w = result.witness
    return {
        "k": k,
        "ell": ell,
        "status": result.verdict.status,
        "case": result.case_id,
        "cut_edges": w.cut_edges if w else None,
        "induced_edges": w.induced_edges if w else None,
    }


def _rect_row(k: int, ell: int) -> dict:
    result = rect_grid_witness(k, ell)
    w = result.witness
    return {
        "k": k,
        "ell": ell,
        "status": result.verdict.status,
        "case": result.case_id,
        "half_edges": w.cut_edges if w else None,
    }


def _tri_row(h: int) -> dict:
    try:
        result = tri_grid_witness(h)
    except ValueError:  # odd edge count
        return {"h": h, "status": "OddEdges", "case": None, "half_edges": None}
    w = result.witness
    return {
        "h": h,
        "status": result.verdict.status,
        "case": result.case_id,
        "half_edges": w.cut_edges if w else None,
    }


def _verify_row(k: int, ell: int, budget: int) -> dict:
    construction = circulant_witness(k, ell)
    oracle = decide_balanceable(construction.graph, budget=budget)
    return {
        "k": k,
        "ell": ell,
        "construction": construction.verdict.status,
        "oracle": oracle.status,
    }


def _print_rows(args, rows: list[dict], columns: list[str]) -> None:
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return
    widths = {
        c: max(len(c), *(len(str(row[c])) for row in rows)) if rows else len(c)
        for c in columns
    }
    print("  ".join(c.ljust(widths[c]) for c in columns).rstrip())
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in columns).rstrip())


def _cmd_family_table(args) -> int:
    if args.kmax < 4:
        raise ValueError("kmax must be at least 4")
    rows = [_family_row(k, ell) for k in range(4, args.kmax + 1) for ell in range(2, k // 2 + 1)]
    _print_rows(args, rows, ["k", "ell", "status", "case", "cut_edges", "induced_edges"])
    return EXIT_OK


def _cmd_grid_table(args) -> int:
    if args.rect is not None:
        if args.rect < 2:
            raise ValueError("kmax must be at least 2")
        rows = [
            _rect_row(k, ell)
            for k in range(2, args.rect + 1)
            for ell in range(k, args.rect + 1, 2)
        ]
        _print_rows(args, rows, ["k", "ell", "status", "case", "half_edges"])
    else:
        if args.tri < 1:
            raise ValueError("hmax must be at least 1")
        rows = [_tri_row(h) for h in range(1, args.tri + 1)]
        _print_rows(args, rows, ["h", "status", "case", "half_edges"])
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.kmax < 4:
        raise ValueError("kmax must be at least 4")
    rows = [
        _verify_row(k, ell, args.budget)
        for k in range(4, args.kmax + 1)
        for ell in range(2, k // 2 + 1)
    ]
    undecided = [r for r in rows if r["oracle"] == "Undecided"]
    mismatches = [r for r in rows if r["construction"] != r["oracle"] and r["oracle"] != "Undecided"]
    if args.json:
        print(
            json.dumps(
                {"instances": len(rows), "mismatches": mismatches, "undecided": undecided},
                indent=2,
                sort_keys=True,
            )
        )
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

    sub = commands.add_parser("bal", help="balanced-copy threshold by brute force")
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
        return args.handler(args)
    except BudgetExceeded as exc:
        print(f"balanceable: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"balanceable: error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


def main() -> int:
    return run_cli()


if __name__ == "__main__":
    sys.exit(main())
