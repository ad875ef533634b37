"""The four workloads: their operations, how each one runs, and how its
answer is checked.

Each workload hands out operations in blocks.  A block has a fixed mix of
operation kinds, shuffled by the seed, so a run that stops part-way through
a block still carries the intended mix.  Operations are plain tuples and
call the library through the package at run time, so a traced run sees
every call.  Budgets are fixed here so that every commit runs with the
same ones.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import check
from check import expect

DEFAULT_BUDGET = 1 << 28  # the library's default scan budget
SEARCH_SHORT_BUDGET = 1 << 20  # the search share that runs out (K_22)
CONDITION_BUDGET = 1 << 18  # node budget for condition_reports in shortcuts
STAR_WARMUP = 16  # reduction gadgets K_{1,m} enumerated during set-up
BAL_PATTERNS = ("path:2", "path:3", "complete:3", "cycle:4", "complete:4")


def random_edges(rng, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def sparse_edges(rng, n: int, degree: int) -> list[tuple[int, int]]:
    """G(n, M) with M = n * degree / 2 distinct edges."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < n * degree // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def components(n: int, edges) -> list[int]:
    """Sizes of the connected components."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    sizes: dict[int, int] = {}
    for v in range(n):
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    return list(sizes.values())


def scan_states(lib, g, verdict, budget: int) -> tuple[int, int]:
    """States the cut and induced scans visited, from the smallest-mask
    answers: a hit at cut mask x costs (x >> 1) + 1 states, a hit at induced
    mask w costs w + 1, an empty scan its whole space, an exhausted scan its
    budget.  Counts a verdict hides come from a repeated scan."""

    def cut():
        try:
            x = lib.find_half_cut(g, budget=budget)
        except lib.BudgetExceeded:
            return budget
        return (x.mask >> 1) + 1 if x is not None else 1 << (g.n - 1)

    def induced():
        try:
            w = lib.find_half_induced(g, budget=budget)
        except lib.BudgetExceeded:
            return budget
        return w.mask + 1 if w is not None else 1 << g.n

    if verdict.status == "Balanceable":
        w = verdict.witness
        return (w.cut_side.mask >> 1) + 1, w.induced_set.mask + 1
    if verdict.status == "Undecided":
        return (budget, 0) if verdict.reason.startswith("cut") else (cut(), budget)
    kind = verdict.obstruction.kind.value
    if kind == "ParityEulerian":
        return 0, 0
    return cut(), induced()


class Workload:
    """Base: subclasses define ``block``, ``run``, ``check`` and ``warmup``."""

    traced = False  # set for the traced half of a --trace 1 run

    def __init__(self, lib, rng, root: str):
        self.lib, self.rng, self.root = lib, rng, root
        self.blocks = 0
        self.decks: dict[str, list] = {}

    def draw(self, name: str, options):
        """Deal from a shuffled deck of ``options``, reshuffled when empty,
        so every run sees nearly the same multiset of inputs."""
        deck = self.decks.get(name)
        if not deck:
            deck = self.decks[name] = list(options)
            self.rng.shuffle(deck)
        return deck.pop()

    def stream(self):
        while True:
            ops = self.block(self.blocks)
            self.blocks += 1
            self.rng.shuffle(ops)
            yield from ops

    def stratum(self, op) -> str:
        """The operation's cost class: operations of one class cost about
        the same, and every block carries the same number of each."""
        return op[0]

    def finish(self) -> list[tuple[tuple, str]]:
        """Checks deferred until after the timed phase: (op, error) pairs."""
        return []

    def probes(self) -> list[tuple]:
        """Operations on known seed defects, run untimed after the timed
        phase and reported apart from it."""
        return []

    def account(self, op, result, counters) -> None:
        """Per-layer counts the spans cannot see (traced runs only)."""

    def close(self) -> None:
        """Remove whatever set-up wrote into the checkout."""


class Search(Workload):
    """decide_balanceable on orders 15-24, plus bal_number(6, .)."""

    def __init__(self, lib, rng, root):
        super().__init__(lib, rng, root)
        expected = check.load_expected(os.path.join(root, "perfbench", "data", "expected.json"))
        self.pool = expected["random_graphs"]
        for entry in self.pool:
            entry["edges"] = check.rows_to_edges(entry["rows"])
        # three strata per density, by the exact number of scan states;
        # operations carry the pool index
        self.strata = {}
        for p in (0.2, 0.5, 0.8):
            ids = sorted((i for i, e in enumerate(self.pool) if e["p"] == p),
                         key=lambda i: (self.pool[i]["cut"] >> 1) + self.pool[i]["induced"])
            third = len(ids) // 3
            self.strata[p] = [ids[s * third : (s + 1) * third] for s in range(3)]
        self.stratum_of = {i: f"random {p}/{s}" for p, thirds in self.strata.items()
                           for s, ids in enumerate(thirds) for i in ids}
        self.bal6 = {row["pattern"]: row["value"] for row in expected["bal6"]}

    def warmup(self):
        # criterion 09's frozen values, then each kind of operation once, on
        # inputs that do not depend on the seed
        return [
            ("bal", 4, "path:2"),
            ("bal", 5, "path:2"),
            ("bal", 4, "complete:4"),
            ("bal", 6, "path:2"),
            *(("random", self.strata[p][1][0]) for p in self.strata),
            *(("decide", f"complete:{n}", DEFAULT_BUDGET) for n in range(15, 19)),
            ("decide", "chorded:24,7", DEFAULT_BUDGET),
            ("decide", "grid:4x4", DEFAULT_BUDGET),
            ("decide", "grid:4x6", DEFAULT_BUDGET),
            ("decide", "complete:22", SEARCH_SHORT_BUDGET),
        ]

    def block(self, i):
        ops = [("random", self.draw(f"{p}/{s}", self.strata[p][s])) for p in self.strata for s in range(3)]
        ops += [("decide", f"complete:{n}", DEFAULT_BUDGET) for n in range(15, 19)]
        chorded = [(k, ell) for k in (20, 22, 24, 26) for ell in range(2, k // 2 + 1)]
        for _ in range(2):
            k, ell = self.draw("chorded", chorded)
            ops.append(("decide", f"chorded:{k},{ell}", DEFAULT_BUDGET))
        ops += [("decide", "grid:4x4", DEFAULT_BUDGET), ("decide", "grid:4x6", DEFAULT_BUDGET)]
        ops.append(("decide", "complete:22", SEARCH_SHORT_BUDGET))
        # with these counts the median falls among the K_15 and K_16 scans and
        # the 90th percentile among bal_number(6, cycle:4), not in the sparse
        # gaps between cost classes, so both repeat from seed to seed
        ops += [("bal", 6, self.draw("bal", BAL_PATTERNS)) for _ in range(3)]
        return ops

    def stratum(self, op):
        if op[0] == "random":
            return self.stratum_of[op[1]]
        if op[0] == "decide":
            return "chorded" if op[1].startswith("chorded") else op[1]
        return f"bal {op[2]}"

    def run(self, op):
        lib = self.lib
        if op[0] == "random":
            entry = self.pool[op[1]]
            g = lib.Graph(entry["n"], entry["edges"])
            return g, lib.decide_balanceable(g)
        if op[0] == "decide":
            g = lib.graph_from_spec(op[1])
            return g, lib.decide_balanceable(g, budget=op[2])
        return lib.bal_number(op[1], lib.graph_from_spec(op[2]))

    def check(self, op, result):
        if op[0] == "bal":
            _, n, spec = op
            want = self.bal6[spec] if n == 6 else check.FROZEN_BAL[(n, spec)]
            expect(result == want, f"bal_number({n}, {spec}) = {result}, expected {want}")
            return True
        g, got = result
        if op[0] == "random":
            entry = self.pool[op[1]]
            want = {key: entry[key] for key in ("status", "kind", "cut", "induced")}
            check.verdict(entry["n"], entry["edges"], got, want)
            return got.status != "Undecided"
        spec, budget = op[1], op[2]
        n, edges = check.family(spec)
        if spec.startswith("complete:"):
            want = check.complete_rule(n, budget)
        else:
            status, kind = check.family_rule(spec)
            want = {"status": status, "kind": kind}
        check.verdict(n, edges, got, want)
        return got.status != "Undecided"

    def account(self, op, result, counters):
        if op[0] == "bal":
            slots = op[1] * (op[1] - 1) // 2
            counters["ramsey.colorings"] += 1 << (slots - 1)
            return
        g, verdict = result
        budget = op[2] if op[0] == "decide" else DEFAULT_BUDGET
        cut, induced = scan_states(self.lib, g, verdict, budget)
        counters["oracle.cut_states"] += cut
        counters["oracle.induced_states"] += induced
        counters["oracle.undecided"] += verdict.status == "Undecided"
        counters["oracle.parity_settled"] += (
            verdict.obstruction is not None and verdict.obstruction.kind.value == "ParityEulerian"
        )


class Shortcuts(Workload):
    """Closed-form witnesses, condition_reports and parity-settled decisions
    on large instances."""

    def __init__(self, lib, rng, root):
        super().__init__(lib, rng, root)
        # drawn before the stream, so they depend on the seed alone
        self.deep = [("conditions", self._spec(kind))
                     for kind in ("deep-chorded", "deep-cycle", "deep-tri", "deep-wheel", "deep-random")]

    def warmup(self):
        # one operation of each timed kind
        return [
            ("witness", "chorded:19998,7"),
            ("witness", "grid:140x140"),
            ("witness", "tri:192"),
            ("conditions", "cycle:302"),
            ("conditions", "grid:20x20"),
            ("decide", "tri:204"),
        ]

    def _spec(self, kind: str):
        rng = self.rng
        if kind == "cycle-2mod4":  # half target unreachable: the search runs out
            return f"cycle:{rng.randrange(42, 399, 4)}"
        if kind == "odd-circulant":  # 4-regular with m/2 odd: runs out too
            k = rng.randrange(41, 400, 2)
            return f"chorded:{k},{rng.randrange(2, k // 2 + 1)}"
        # shapes whose independent set is found at once
        if kind == "cycle":
            return f"cycle:{rng.randrange(40, 989, 4)}"
        if kind == "grid":
            return f"grid:{rng.randrange(5, 31)}x{rng.randrange(8, 31)}"
        if kind == "antiprism":
            return f"antiprism:{rng.randrange(20, 495, 2)}"
        if kind == "tri":
            return f"tri:{rng.randrange(8, 41, 8) + rng.randrange(2)}"
        if kind.startswith("random"):  # sparse: found at degree 3, runs out at 8
            degree = int(kind[6:])
            n = rng.randrange(40 if degree == 3 else 100, 991)
            return ("random", n, sparse_edges(rng, n, degree))
        # deeper than the interpreter's recursion limit
        k = rng.randrange(1002, 1199, 4)
        return {
            "deep-chorded": lambda: f"chorded:{k},{rng.randrange(2, k // 2)}",
            "deep-cycle": lambda: f"cycle:{k}",
            "deep-tri": lambda: f"tri:{rng.randrange(45, 49)}",
            "deep-wheel": lambda: f"wheel:{rng.randrange(1001, 1200)}",
            "deep-random": lambda: ("random", k, sparse_edges(rng, k, 8)),
        }[kind]()

    def probes(self):
        """One condition_reports call on a graph of each deep kind.  At the
        seed every one raises RecursionError."""
        return self.deep

    def _witness_spec(self, kind: str):
        rng = self.rng
        if kind == "chorded":
            residue, parity = self.draw("chorded", [(r, p) for r in range(4) for p in range(2)])
            k = rng.randrange(18000 + residue, 20003, 4)
            return f"chorded:{k},{rng.randrange(2 + parity, k // 2 + 1, 2)}"
        if kind == "grid":
            r = rng.randrange(130, 151)
            return f"grid:{r}x{rng.randrange(130 + r % 2, 151, 2)}"
        return f"tri:{rng.randrange(160, 193, 8) + self.draw('tri', (0, 1, 4, 5))}"

    def block(self, i):
        rng = self.rng
        ops = [("witness", self._witness_spec(kind)) for kind in ("chorded", "grid", "tri") * 2]
        kinds = ["cycle-2mod4", "odd-circulant", "random3", "random8",
                 self.draw("random", ("random3", "random8")),
                 self.draw("family", ("cycle", "grid", "antiprism", "tri")),
                 self.draw("family", ("cycle", "grid", "antiprism", "tri"))]
        ops += [("conditions", self._spec(kind)) for kind in kinds]
        ops.append(("decide", f"tri:{rng.randrange(176, 209, 8) + self.draw('parity-tri', (4, 5))}"))
        ops.append(("decide", f"cycle:{rng.randrange(18002, 20003, 4)}"))
        k = rng.randrange(18001, 20002, 2)
        ops.append(("decide", f"chorded:{k},{rng.randrange(2, k // 2)}"))
        return ops

    def stratum(self, op):
        graph = op[1]
        if isinstance(graph, tuple):
            return f"{op[0]} random{2 * len(graph[2]) // graph[1]}"
        family, _, args = graph.partition(":")
        if op[0] == "conditions" and family in ("cycle", "chorded"):
            # cycles with k = 2 mod 4 and odd circulants run out of budget
            family += f" {int(args.split(',')[0]) % 4 % (2 if family == 'chorded' else 4)}"
        return f"{op[0]} {family}"

    def run(self, op):
        lib = self.lib
        if op[0] == "witness":
            return lib.witness_for_spec(lib.parse_family_spec(op[1]))
        if op[0] == "decide":
            return lib.decide_balanceable(lib.graph_from_spec(op[1]))
        graph = op[1]
        g = lib.Graph(graph[1], graph[2]) if isinstance(graph, tuple) else lib.graph_from_spec(graph)
        return lib.condition_reports(g, node_budget=CONDITION_BUDGET)

    def check(self, op, result):
        if op[0] == "witness":
            check.construction(op[1], result)
            return True
        if op[0] == "decide":
            n, edges = check.family(op[1])
            expect(check.parity_blocked(n, edges), f"{op[1]} is not parity-blocked")
            check.verdict(n, edges, result, {"status": check.NOT, "kind": check.PARITY})
            return True
        graph = op[1]
        n, edges = (graph[1], graph[2]) if isinstance(graph, tuple) else check.family(graph)
        return check.conditions(n, edges, result)

    def account(self, op, result, counters):
        if op[0] == "decide":
            counters["oracle.parity_settled"] += result.obstruction.kind.value == "ParityEulerian"
        if op[0] == "conditions":
            counters["conditions.reports"] += 1
            counters["conditions.budget_exhausted"] += "exhausted" in result[0].note
            counters["conditions.settled"] += any(r.outcome != "inapplicable" for r in result)


class CutValues(Workload):
    """(a) every target of small random graphs through the max-cut to
    exact-cut reduction; (b) value sets of graphs with 2-4 components of
    16-20 vertices."""

    # component sizes of the (b) graphs, three per block, cycling: one light
    # shape (2^15 + 2^16 states), two medium (327 680) and three heavy
    # (786 432), so p90 falls inside the medium class, not on a boundary
    SIZES = ((16, 17), (18, 18, 17), (20, 19), (16, 16, 18, 18), (19, 19, 18, 18), (20, 18, 18))

    def __init__(self, lib, rng, root):
        super().__init__(lib, rng, root)
        self.small = self._small_queries()
        self.truth: dict = {}
        self.deferred: list = []

    def warmup(self):
        # every reduction gadget the (a) queries can meet, and one (b) shape
        return [("atleast", m + 1, [(0, v) for v in range(1, m + 1)], 0) for m in range(STAR_WARMUP + 1)] + [
            ("maxcut", 12, [(i, (i + 1) % 6) for i in range(6)] + [(6 + i, 6 + (i + 1) % 6) for i in range(6)])
        ]

    def _small_queries(self):
        """Random graphs on at most 8 vertices, at most STAR_WARMUP edges
        (criterion 08's range), queried for every target k = 0..m."""
        shapes = [(n, m) for n in range(2, 9) for m in range(min(n * (n - 1) // 2, STAR_WARMUP) + 1)]
        while True:
            n, m = self.draw("small", shapes)
            edges = sorted(self.rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m))
            for k in range(m + 1):
                yield ("atleast", n, edges, k)

    def _components_graph(self, sizes):
        rng, offset, edges = self.rng, 0, []
        for c in sizes:
            order = list(range(c))
            rng.shuffle(order)
            local = {tuple(sorted(order[i : i + 2])) for i in range(c - 1)}
            local |= {(u, v) for u in range(c) for v in range(u + 1, c) if rng.random() < 0.2}
            edges += [(u + offset, v + offset) for u, v in sorted(local)]
            offset += c
        return offset, edges

    def block(self, i):
        ops = [next(self.small) for _ in range(17)]
        for j in range(3):
            n, edges = self._components_graph(self.SIZES[(3 * i + j) % len(self.SIZES)])
            ops.append(("maxcut" if j % 2 else "valueset", n, edges))
        return ops

    def stratum(self, op):
        return op[0] if op[0] == "atleast" else f"{op[0]} {sorted(components(op[1], op[2]))}"

    def run(self, op):
        lib = self.lib
        g = lib.Graph(op[1], op[2])
        if op[0] == "atleast":
            inst = lib.reduce_maxcut_to_exactcut(lib.CutInstance(g, op[3]))
            return inst, lib.has_cut_at_least(g, op[3]), lib.has_cut_exactly(inst.graph, inst.k)
        if op[0] == "maxcut":
            return lib.max_cut_value(g)
        return lib.cut_value_set(g)

    def check(self, op, result):
        if op[0] != "atleast":
            self.deferred.append((op, result))
            return True
        _, n, edges, k = op
        inst, at_least, exactly = result
        key = (n, tuple(edges))
        if key not in self.truth:
            self.truth[key] = max(check.brute_cut_values(n, edges))
        m, want = len(edges), self.truth[key] >= k
        expect(at_least == want, f"has_cut_at_least(k={k}) = {at_least}, expected {want}")
        expect(exactly == want, f"has_cut_exactly on the reduced instance = {exactly}, expected {want}")
        expect(inst.k == k + m, f"reduced target {inst.k}, expected {k + m}")
        star = [(n, n + 1 + i) for i in range(m)]
        expect(inst.graph.adj == tuple(check.rows_of(n + m + 1, edges + star)), "reduced graph is not G plus K_{1,m}")
        return True

    def finish(self):
        import brute  # numpy, loaded only after the timed phase

        errors = []
        for op, result in self.deferred:
            mask = brute.cut_value_mask(op[1], op[2])
            values = {v for v in range(mask.bit_length()) if mask >> v & 1}
            want = max(values) if op[0] == "maxcut" else values
            if result != want:
                errors.append((op, f"{op[0]} answer differs from the brute force"))
        return errors

    def account(self, op, result, counters):
        queried = [(op[1], op[2])]
        if op[0] == "atleast":
            m, n = len(op[2]), op[1]
            queried.append((n + m + 1, op[2] + [(n, n + 1 + i) for i in range(m)]))
        for n, edges in queried:
            counters["reduction.states"] += sum(1 << (c - 1) for c in components(n, edges))


# the CLI child under tracing: stamps the clock after interpreter start,
# after the import, and after the command, on the last line of stderr
TRACED_CLI = (
    "import sys, time; t1 = time.monotonic()\n"
    "import balanceable.cli as cli; t2 = time.monotonic()\n"
    "code = cli.run_cli(sys.argv[1:]); t3 = time.monotonic()\n"
    "sys.stdout.flush(); print(f'\\n@stamps {t1} {t2} {t3}', file=sys.stderr); sys.exit(code)\n"
)


class Cli(Workload):
    """Fresh `python -m balanceable.cli` processes, one at a time."""

    def __init__(self, lib, rng, root):
        super().__init__(lib, rng, root)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("BALANCEABLE_WORKERS", None)
        self.workdir = os.path.join(root, "perfbench", "out", f"work-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.files = []
        for i in range(4):
            n = rng.randrange(4, 9)
            edges = random_edges(rng, n, 0.5)
            path = os.path.join(self.workdir, f"graph{i}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
            self.files.append((path, n, edges))
        self.stamps: list[tuple[float, float, float]] = []

    def close(self):
        for path, _, _ in self.files:
            os.remove(path)
        os.rmdir(self.workdir)

    def warmup(self):
        path, n, edges = self.files[0]
        return [
            ("classify", ["classify", "cycle:12"], 12),
            ("json", ["classify", "chorded:14,3", "--json"]),
            ("conditions", ["conditions", "wheel:6", "--json"]),
            ("json", ["witness", "chorded:38,8", "--json"]),
            ("json", ["witness", "grid:6x8", "--json"]),
            ("json", ["witness", "tri:17", "--json"]),
            ("reduce", ["reduce", path, "--k", "0", "--json"], (n, edges, 0)),
            ("bal", ["bal", "--n", "5", "--graph", "path:2", "--json"]),
            ("verify", ["verify", "--kmax", "14", "--json"]),
            ("family-table", ["family-table", "--kmax", "40", "--json"]),
            ("tri-table", ["grid-table", "--tri", "60", "--json"]),
            ("bad-spec", ["classify", "mystery:9"]),
        ]

    def block(self, i):
        rng = self.rng
        cycle_k = rng.randrange(8, 17)
        ck = rng.randrange(10, 17)
        wk = rng.randrange(20, 61)
        rows = rng.randrange(4, 13)
        path, n, edges = rng.choice(self.files)
        k = rng.randrange(0, len(edges) + 1)
        h = rng.choice([h for h in range(8, 41) if h % 8 in (0, 1, 4, 5)])
        return [
            ("classify", ["classify", f"cycle:{cycle_k}"], cycle_k),
            ("json", ["classify", f"chorded:{ck},{rng.randrange(2, ck // 2 + 1)}", "--json"]),
            ("conditions", ["conditions", f"wheel:{rng.randrange(5, 13)}", "--json"]),
            ("json", ["witness", f"chorded:{wk},{rng.randrange(2, wk // 2 + 1)}", "--json"]),
            ("json", ["witness", f"grid:{rows}x{rng.randrange(4 + rows % 2, 13, 2)}", "--json"]),
            ("json", ["witness", f"tri:{h}", "--json"]),
            ("reduce", ["reduce", path, "--k", str(k), "--json"], (n, edges, k)),
            ("bal", ["bal", "--n", "5", "--graph", "path:2", "--json"]),
            ("verify", ["verify", "--kmax", "14", "--json"]),
            ("family-table", ["family-table", "--kmax", "40", "--json"]),
            # twice: the heaviest command then holds the 90th percentile
            # inside its own cost class instead of at the edge of it
            ("tri-table", ["grid-table", "--tri", "60", "--json"]),
            ("tri-table", ["grid-table", "--tri", "60", "--json"]),
            ("bad-spec", ["classify", "mystery:9"]),
        ]

    def stratum(self, op):
        return f"{op[1][0]} {op[1][1].partition(':')[0]}" if op[0] == "json" else op[0]

    def run(self, op):
        if self.traced:
            argv = [sys.executable, "-c", TRACED_CLI, *op[1]]
        else:
            argv = [sys.executable, "-m", "balanceable.cli", *op[1]]
        start = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True, env=self.env, cwd=self.root, timeout=120)
        err = done.stderr
        if self.traced:
            err, _, line = err.rstrip("\n").rpartition("\n")
            t1, t2, t3 = map(float, line.split()[1:])
            self.stamps.append((t1 - start, t2 - t1, t3 - t2))
        return done.returncode, done.stdout, err

    def check(self, op, result):
        code, out, err = result
        kind = op[0]
        if kind == "bad-spec":
            expect(code == 1 and "error" in err, f"bad spec exited {code}")
            return True
        expect(code == 0, f"{' '.join(op[1])} exited {code}: {err.strip()[-200:]}")
        if kind == "classify":
            status, _ = _cycle_rule(op[2])
            head = out.splitlines()[0]
            expect(head.split(": ", 1)[1].split()[0] == status, f"classify cycle:{op[2]}: {head}")
            if status == check.BAL:
                n, edges = check.family(f"cycle:{op[2]}")
                x = re.search(r"cut side X = \[(.*?)\] crossing (\d+)", out)
                w = re.search(r"induced set W = \[(.*?)\] with (\d+)", out)
                expect(x is not None and w is not None, "classify printed no witness")
                check.witness(n, edges, _mask(x[1]), _mask(w[1]), int(x[2]), int(w[2]))
            return True
        data = json.loads(out)
        if kind == "json":
            spec = op[1][1]
            n, edges = check.family(spec)
            status, obstruction = check.family_rule(spec)
            expect(data["status"] == status, f"{spec}: {data['status']}, expected {status}")
            if status == check.BAL:
                check.witness(
                    n, edges, _mask(data["cut_side"]), _mask(data["induced_set"]),
                    data["cut_edges"], data["induced_edges"],
                )
            elif obstruction:
                expect(data["obstruction"] == obstruction, f"{spec}: obstruction {data['obstruction']}")
            return True
        if kind == "conditions":
            spec = op[1][1]
            n, edges = check.family(spec)
            reports = [
                SimpleNamespace(
                    condition=SimpleNamespace(value=row["condition"]),
                    outcome=row["outcome"],
                    note=row["note"],
                    witness=None if row["witness"] is None else _VertexList(row["witness"]),
                )
                for row in data["conditions"]
            ]
            return check.conditions(n, edges, reports)
        if kind == "reduce":
            n, edges, k = op[2]
            m = len(edges)
            star = [(n, n + 1 + i) for i in range(m)]
            expect(data["n"] == n + m + 1 and data["target"] == k + m, "reduced size or target")
            expect(sorted(map(tuple, data["edges"])) == sorted(edges + star), "reduced edges")
            return True
        if kind == "bal":
            expect(data["bal"] == check.FROZEN_BAL[(5, "path:2")], f"bal = {data['bal']}")
            return True
        if kind == "verify":
            instances = sum(k // 2 - 1 for k in range(4, 15))
            expect(data == {"instances": instances, "mismatches": [], "undecided": []}, f"verify: {data}")
            return True
        if kind == "family-table":
            expect(len(data) == sum(k // 2 - 1 for k in range(4, 41)), "family-table row count")
            for row in data:
                k, ell = row["k"], row["ell"]
                status, _ = check.circulant_rule(k, ell)
                expect(row["status"] == status, f"family-table k={k} ell={ell}: {row['status']}")
                if status == check.BAL:
                    lo, hi = check.band(3 * k // 2 if 2 * ell == k else 2 * k)
                    expect(lo <= row["cut_edges"] <= hi and lo <= row["induced_edges"] <= hi, "family-table counts")
            return True
        # tri-table
        expect([row["h"] for row in data] == list(range(1, 61)), "grid-table rows")
        for row in data:
            h = row["h"]
            if h % 8 in (2, 3, 6, 7):
                expect(row["status"] == "OddEdges", f"tri h={h}: {row['status']}")
                continue
            status, _ = check.tri_rule(h)
            expect(row["status"] == status, f"tri h={h}: {row['status']}")
            if status == check.BAL:
                expect(row["half_edges"] * 4 == 3 * h * (h - 1), f"tri h={h}: half_edges {row['half_edges']}")
        return True


def _cycle_rule(k: int) -> tuple[str, str | None]:
    """C_k: every cut is even, so k = 2 mod 4 is parity-blocked; every other
    cycle has an even cut and a path segment in its band."""
    return (check.NOT, check.PARITY) if k % 4 == 2 else (check.BAL, None)


def _mask(indices) -> int:
    if isinstance(indices, str):
        indices = [int(t) for t in indices.split(",") if t.strip()]
    return sum(1 << v for v in indices)


class _VertexList:
    def __init__(self, indices):
        self._indices = tuple(indices)
        self.mask = _mask(indices)

    def indices(self):
        return self._indices


WORKLOADS = {"search": Search, "shortcuts": Shortcuts, "cutvalues": CutValues, "cli": Cli}
