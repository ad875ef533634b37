import json
import os
import subprocess
import sys

import pytest

import balanceable
from balanceable import cycle, decide_balanceable, format_edge_list, graph_from_spec
from balanceable.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_balanceable(capsys):
    code, out, _ = run(capsys, "classify", "cycle:12")
    assert code == 0
    assert "Balanceable" in out
    assert "cut side X" in out


def test_classify_not_balanceable_exits_zero(capsys):
    code, out, _ = run(capsys, "classify", "cycle:10")
    assert code == 0
    assert "NotBalanceable" in out
    assert "ParityEulerian" in out


def test_classify_json_fields(capsys):
    code, out, _ = run(capsys, "classify", "cycle:12", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "Balanceable"
    assert data["cut_side"] == [0, 2, 4]
    assert data["cut_edges"] == 6
    assert data["budget_status"] == "ok"


def test_classify_budget_exit(capsys):
    code, out, _ = run(capsys, "classify", "chorded:30,7", "--budget", "3")
    assert code == 2
    assert "Undecided" in out


def test_classify_reads_edge_list_file(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(format_edge_list(cycle(4)))
    code, out, _ = run(capsys, "classify", str(f))
    assert code == 0
    assert "Balanceable" in out


def test_bad_family_spec_exits_one(capsys):
    code, _, err = run(capsys, "classify", "mystery:9")
    assert code == 1
    assert "error" in err


def test_bad_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["classify", "cycle:12", "--budget", "noise"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_budget_out_of_range_exits_one(capsys):
    code, _, err = run(capsys, "classify", "cycle:12", "--budget", "99")
    assert code == 1
    assert "0..60" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "chorded:38,8"],
        ["bal", "--n", "4", "--graph", "path:2"],
        ["family-table", "--kmax", "6"],
        ["grid-table", "--tri", "4"],
        ["reduce", "graph.txt", "--k", "1"],
    ],
)
def test_budget_rejected_where_unused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--budget", "5"])
    assert exc.value.code == 1
    assert "--budget" in capsys.readouterr().err


def test_conditions_output(capsys):
    code, out, _ = run(capsys, "conditions", "cycle:8")
    assert code == 0
    assert "DegreeHalfEdges: implies-balanceable" in out
    assert "BigVertex" in out


def test_conditions_json(capsys):
    code, out, _ = run(capsys, "conditions", "wheel:6", "--json")
    assert code == 0
    data = json.loads(out)
    rows = {r["condition"]: r for r in data["conditions"]}
    assert rows["BigVertex"]["outcome"] == "implies-balanceable"
    assert rows["BigVertex"]["witness"] == [6]


def test_witness_balanceable(capsys):
    code, out, _ = run(capsys, "witness", "chorded:38,8")
    assert code == 0
    assert "2mod4-even-chord" in out


def test_witness_not_balanceable_exits_zero(capsys):
    code, out, _ = run(capsys, "witness", "chorded:6,2")
    assert code == 0
    assert "NotBalanceable" in out


def test_witness_rejects_unsupported_family(capsys):
    code, _, err = run(capsys, "witness", "cycle:8")
    assert code == 1
    assert "error" in err


def test_family_table_text(capsys):
    code, out, _ = run(capsys, "family-table", "--kmax", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["k", "ell", "status", "case", "cut_edges", "induced_edges"]
    assert any("exception-6-2" in line for line in lines)
    # one row per (k, ell) pair with 2 <= ell <= k/2
    assert len(lines) == 1 + sum(k // 2 - 1 for k in range(4, 9))


def test_family_table_json(capsys):
    code, out, _ = run(capsys, "family-table", "--kmax", "6", "--json")
    assert code == 0
    rows = json.loads(out)
    assert {(r["k"], r["ell"]) for r in rows} == {(4, 2), (5, 2), (6, 2), (6, 3)}


def test_grid_tables(capsys):
    code, out, _ = run(capsys, "grid-table", "--rect", "5")
    assert code == 0
    assert "rect-even" in out
    code, out, _ = run(capsys, "grid-table", "--tri", "10", "--json")
    assert code == 0
    rows = json.loads(out)
    by_h = {r["h"]: r for r in rows}
    assert by_h[2]["status"] == "OddEdges"
    assert by_h[8]["half_edges"] == 42


def test_verify_agrees(capsys):
    code, out, _ = run(capsys, "verify", "--kmax", "10")
    assert code == 0
    assert "0 mismatches" in out


def test_bal_text_and_json(capsys):
    code, out, _ = run(capsys, "bal", "--n", "4", "--graph", "path:2")
    assert code == 0
    assert out.strip() == "bal(4, path:2) = 0"
    code, out, _ = run(capsys, "bal", "--n", "3", "--graph", "path:1")
    assert code == 0
    assert "always present" in out
    code, out, _ = run(capsys, "bal", "--n", "3", "--graph", "path:1", "--json")
    assert json.loads(out)["bal"] is None


def test_bal_large_host_is_a_parameter_error(capsys):
    code, _, err = run(capsys, "bal", "--n", "8", "--graph", "path:2")
    assert code == 1
    assert err.startswith("balanceable: error: ")
    assert "order cap" in err


def test_reduce_text_and_json(tmp_path, capsys):
    f = tmp_path / "c5.txt"
    f.write_text(format_edge_list(cycle(5)))
    code, out, _ = run(capsys, "reduce", str(f), "--k", "4")
    assert code == 0
    assert out.startswith("# target 9")
    assert "11 10" in out
    code, out, _ = run(capsys, "reduce", str(f), "--k", "4", "--json")
    data = json.loads(out)
    assert data["target"] == 9
    assert data["n"] == 11


def test_reduce_target_out_of_range(tmp_path, capsys):
    f = tmp_path / "c5.txt"
    f.write_text(format_edge_list(cycle(5)))
    code, _, err = run(capsys, "reduce", str(f), "--k", "9")
    assert code == 1
    assert "error" in err


def test_reduce_missing_file(capsys):
    code, _, err = run(capsys, "reduce", "/nonexistent/x.txt", "--k", "1")
    assert code == 1



@pytest.mark.parametrize("spec", ["moebius:5", "antiprism:2", "circulant:12,1+7", "circulant:12,1+1"])
def test_witness_rejects_what_classify_rejects(spec, capsys):
    code, _, expected = run(capsys, "classify", spec)
    assert code == 1
    code, out, err = run(capsys, "witness", spec)
    assert code == 1
    assert out == ""
    assert err == expected


def test_spec_wins_over_a_file_of_the_same_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cycle:12").write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "classify", "cycle:12", "--json")
    assert code == 0
    assert json.loads(out)["cut_side"] == [0, 2, 4]
    code, out, _ = run(capsys, "classify", "./cycle:12", "--json")
    assert code == 0
    assert json.loads(out)["cut_side"] == [0]
    code, _, err = run(capsys, "classify", "cycle:2")
    assert code == 1
    assert "cycle needs at least 3 vertices" in err


def test_conditions_deep_chorded_cycle(capsys):
    # 4-regular, so no independent set reaches the target 1002 = 2 mod 4
    code, out, _ = run(capsys, "conditions", "chorded:1002,7", "--budget", "18")
    assert code == 0
    assert "DegreeHalfEdges: inapplicable; no independent set reaches degree sum 1002" in out


def test_conditions_witness_deeper_than_the_recursion_limit(capsys):
    # the first witness is every other vertex 0..1000, so the search is
    # 1001 vertices deep with 501 frames on its stack
    code, out, _ = run(capsys, "conditions", "chorded:2004,7", "--budget", "18")
    assert code == 0
    evens = ", ".join(str(v) for v in range(0, 1001, 2))
    assert f"DegreeHalfEdges: implies-balanceable; independent set [{evens}] has degree sum in 2004" in out


REPORT_KEYS = {
    "input",
    "status",
    "obstruction",
    "detail",
    "case_id",
    "cut_side",
    "induced_set",
    "cut_edges",
    "induced_edges",
    "independent_set",
    "conditions",
    "notes",
    "timing_ms",
    "budget_status",
}
WITNESS_FIELDS = {"cut_side", "induced_set", "cut_edges", "induced_edges"}


@pytest.mark.parametrize(
    "argv, unset",
    [
        (
            ["classify", "cycle:12"],
            {"obstruction", "detail", "case_id", "independent_set", "conditions", "notes"},
        ),
        (["witness", "chorded:6,2"], WITNESS_FIELDS | {"independent_set", "conditions"}),
        (
            ["conditions", "wheel:6"],
            REPORT_KEYS - {"input", "status", "conditions", "timing_ms", "budget_status"},
        ),
    ],
)
def test_single_graph_reports_share_one_schema(argv, unset, capsys):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == REPORT_KEYS
    assert [key for key in sorted(REPORT_KEYS) if data[key] is None] == sorted(unset)
    assert data["input"] == argv[1]
    assert data["budget_status"] == "ok"
    assert isinstance(data["timing_ms"], float)


def test_undecided_report_names_the_exhausted_budget(capsys):
    code, out, _ = run(capsys, "classify", "chorded:30,7", "--budget", "3", "--json")
    assert code == 2
    data = json.loads(out)
    assert set(data) == REPORT_KEYS
    assert data["status"] == "Undecided"
    assert data["budget_status"] == "exceeded"
    assert data["detail"] == decide_balanceable(graph_from_spec("chorded:30,7"), budget=8).reason


UNDECIDED_AT_BUDGET_3 = [(6, 2), (6, 3), (8, 2), (8, 3), (8, 4)]


def test_verify_reports_each_undecided_row(capsys):
    code, out, _ = run(capsys, "verify", "--kmax", "8", "--budget", "3")
    assert code == 2
    assert out.splitlines() == [
        f"UNDECIDED k={k} ell={ell}: oracle budget exhausted" for k, ell in UNDECIDED_AT_BUDGET_3
    ] + ["9 instances, 0 mismatches, 5 undecided"]
    code, out, _ = run(capsys, "verify", "--kmax", "8", "--budget", "3", "--json")
    assert code == 2
    data = json.loads(out)
    assert (data["instances"], data["mismatches"]) == (9, [])
    assert [(r["k"], r["ell"], r["oracle"]) for r in data["undecided"]] == [
        (k, ell, "Undecided") for k, ell in UNDECIDED_AT_BUDGET_3
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["family-table", "--kmax", "3"], "kmax must be at least 4"),
        (["verify", "--kmax", "3"], "kmax must be at least 4"),
        (["grid-table", "--rect", "1"], "kmax must be at least 2"),
        (["grid-table", "--tri", "0"], "hmax must be at least 1"),
    ],
)
def test_table_ranges_refused_below_their_minimum(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"balanceable: error: {message}\n"


def test_rect_grid_table_text(capsys):
    code, out, _ = run(capsys, "grid-table", "--rect", "4")
    assert code == 0
    assert out.splitlines() == [
        "k  ell  status       case                 half_edges",
        "2  2    Balanceable  rect-even            2",
        "2  4    Balanceable  rect-even            5",
        "3  3    Balanceable  rect-odd-one-corner  6",
        "4  4    Balanceable  rect-even            12",
    ]


def test_closed_stdout_exits_quietly():
    """A reader that closes stdout early (`| head -1`) drops the rest of the
    output: no error line, no traceback, exit 0."""
    src = os.path.dirname(os.path.dirname(balanceable.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the first write, so every write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "balanceable.cli", "witness", "chorded:400,5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0


BASE = {"balanceable", "balanceable.cli", "balanceable.families", "balanceable.graphs", "balanceable.oracle"}
LOADS = (
    "import sys\n"
    "from balanceable.cli import run_cli\n"
    "code = run_cli(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('balanceable', 'dataclasses'))\n"
    "print(code, *loaded, file=sys.stderr)\n"
)


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["classify", "cycle:12"], set()),
        (["conditions", "wheel:6"], {"conditions"}),
        (["witness", "chorded:38,8"], {"witnesses"}),
        (["witness", "chorded:40,3"], {"witnesses"}),
        (["family-table", "--kmax", "6"], {"witnesses"}),
        (["grid-table", "--tri", "3"], {"witnesses"}),
        (["verify", "--kmax", "6"], {"witnesses"}),
        (["bal", "--n", "5", "--graph", "path:2"], {"ramsey"}),
        (["reduce", "EDGES", "--k", "1"], {"reduction"}),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_command_loads_only_its_modules(tmp_path, argv, extra):
    """A fresh process loads the package, ``cli``, ``families``, ``graphs``
    and ``oracle``, plus the modules its command runs, and never
    ``dataclasses``; every ``witness`` case, the 0-mod-4 odd chord among
    them, needs ``witnesses`` alone."""
    edges = tmp_path / "g.txt"
    edges.write_text(format_edge_list(cycle(4)), encoding="utf-8")
    argv = [str(edges) if arg == "EDGES" else arg for arg in argv]
    src = os.path.dirname(os.path.dirname(balanceable.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", LOADS, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    code, *loaded = proc.stderr.splitlines()[-1].split()
    assert code == "0", proc.stderr
    assert "dataclasses" not in loaded
    assert set(loaded) == BASE | {f"balanceable.{name}" for name in extra}


@pytest.mark.parametrize(
    "owner, name, argv",
    [
        ("balanceable.cli", "graph_from_spec", ["classify", "cycle:12"]),
        ("balanceable.witnesses", "witness_for_spec", ["witness", "tri:17", "--json"]),
    ],
)
def test_out_of_memory_is_one_error_line(monkeypatch, capsys, owner, name, argv):
    """A MemoryError raised by what a handler calls prints one stderr line
    and exits 1; the builder is patched, so nothing large is allocated."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"{owner}.{name}", exhausted)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"balanceable: error: out of memory running {argv[0]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "chorded:38,8", "--json"],
        ["witness", "grid:6x8"],
        ["grid-table", "--tri", "9"],
        ["family-table", "--kmax", "12", "--json"],
    ],
)
def test_construction_bug_is_an_internal_error(monkeypatch, capsys, argv):
    """A construction that fails its own edge count is a library defect:
    one stderr line and exit 3, no traceback."""
    from balanceable import witnesses

    monkeypatch.setattr(witnesses, "e_cut", lambda g, x: -1)  # every cut miscounted
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("balanceable: internal error: ") and err.count("\n") == 1
    assert "crosses -1, wanted" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "cycle:99999999999999999999"],
        ["classify", "complete:3000", "--json"],
        ["conditions", "tri:100000001"],
        ["witness", "tri:100000001"],
        ["witness", "grid:182x181", "--json"],
        ["witness", "chorded:40002,7"],
        ["bal", "--n", "5", "--graph", "path:99999999999"],
    ],
)
def test_oversized_spec_is_refused_before_building(monkeypatch, capsys, argv):
    """A spec over the size limit exits 1 with one error line; every
    builder is patched to fail, so nothing is built."""
    from balanceable import families, witnesses

    def builder_called(*args):
        raise AssertionError("builder called")

    for kind in families._BUILDERS:
        monkeypatch.setitem(families._BUILDERS, kind, builder_called)
    for name in ("rect_grid", "tri_grid", "chorded_cycle"):
        monkeypatch.setattr(witnesses, name, builder_called)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("balanceable: error: ") and err.count("\n") == 1
    assert err.endswith("is over the limit of 32768 vertices and 131072 edges\n")
